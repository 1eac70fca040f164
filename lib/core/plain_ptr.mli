(** Untagged shared pointer cell: one atomic holding a {!View.t}.
    Used by every scheme except TagIBR (extra born_before word) and
    TagIBR-WCAS (packed cell). *)

type 'a t = 'a View.t Atomic.t

val make : ?tag:int -> 'a Block.t option -> 'a t
val read : 'a t -> 'a View.t
val write : 'a t -> ?tag:int -> 'a Block.t option -> unit

val cas : 'a t -> expected:'a View.t -> ?tag:int -> 'a Block.t option -> bool
(** Succeeds only against the physically identical expected view. *)

val peek : 'a t -> 'a View.t
(** Uncharged read, for constructors and assertions. *)

(** The pointer operations of {!Tracker_intf.TRACKER} for a scheme
    whose reservations cover a whole operation (EBR, Fraser-EBR,
    QSBR, DEBRA, NoMM, UnsafeFree): reads are plain, and
    [unreserve]/[reassign] are no-ops.  Meant to be [include]d. *)
module Unguarded : sig
  val make_ptr : 'h -> ?tag:int -> 'a Block.t option -> 'a t
  val read : 'h -> slot:int -> 'a t -> 'a View.t
  val read_root : 'h -> 'a t -> 'a View.t
  val write : 'h -> 'a t -> ?tag:int -> 'a Block.t option -> unit

  val cas :
    'h -> 'a t -> expected:'a View.t -> ?tag:int -> 'a Block.t option ->
    bool

  val unreserve : 'h -> slot:int -> unit
  val reassign : 'h -> src:int -> dst:int -> unit
end

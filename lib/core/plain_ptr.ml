(* Untagged shared pointer cell: a single atomic holding a view.
   Shared by every scheme except TagIBR (which adds a born_before
   word) and TagIBR-WCAS (which packs both into one cell). *)

type 'a t = 'a View.t Atomic.t

let make ?tag target = Atomic.make (View.make ?tag target)

let read (p : 'a t) = Prim.read p

let write (p : 'a t) ?tag target = Prim.write p (View.make ?tag target)

let cas (p : 'a t) ~expected ?tag target =
  Prim.cas p expected (View.make ?tag target)

(* Uncharged read for constructors and assertions. *)
let peek (p : 'a t) = Atomic.get p

(* The pointer half of a scheme whose reservations cover a whole
   operation (EBR, Fraser-EBR, QSBR, DEBRA, NoMM, UnsafeFree): every
   read is the plain cell read, and there are no per-pointer slots to
   release or hand over. *)
module Unguarded = struct
  let make_ptr _ ?tag target = make ?tag target
  let read _ ~slot:_ (p : 'a t) = Prim.read p
  let read_root _ (p : 'a t) = Prim.read p
  let write _ p ?tag target = write p ?tag target
  let cas _ p ~expected ?tag target = cas p ~expected ?tag target
  let unreserve _ ~slot:_ = ()
  let reassign _ ~src:_ ~dst:_ = ()
end

(* Name-indexed registry of every reclamation scheme, mirroring the
   artifact's tracker menu.  Experiments and the CLI select schemes by
   these names; [paper_set] is the lineup of §5's figures. *)

type entry = {
  name : string;
  tracker : Tracker_intf.packed;
}

let pack (module T : Tracker_intf.TRACKER) = { name = T.name; tracker = (module T) }

let no_mm = pack (module No_mm)
let ebr = pack (module Ebr)
let hp = pack (module Hp)
let he = pack (module He)
let po_ibr = pack (module Po_ibr)
let tag_ibr = pack (module Tag_ibr.Cas)
let tag_ibr_faa = pack (module Tag_ibr.Faa)
let tag_ibr_wcas = pack (module Tag_ibr_wcas)
let tag_ibr_tpa = pack (module Tag_ibr_tpa)
let two_ge_ibr = pack (module Two_ge_ibr)
let qsbr = pack (module Qsbr)
let fraser_ebr = pack (module Fraser_ebr)
let debra = pack (module Debra)
let debra_plus = pack (module Debra_plus)
let unsafe_free = pack (module Unsafe_free)
let two_ge_unfenced = pack (module Two_ge_ibr.Unfenced)
let qsbr_noncas = pack (module Qsbr.Noncas)
let ebr_noflush = pack (module Ebr.Noflush)
let debra_norestart = pack (module Debra_plus.Norestart)

(* The census slot manager behind every tracker's attach/detach,
   re-exported so harness and test code can model it without
   depending on tracker internals. *)
module Census = Tracker_common.Census

(* Every correct scheme. *)
let all = [
  no_mm; ebr; fraser_ebr; qsbr; debra; debra_plus; hp; he; po_ibr;
  tag_ibr; tag_ibr_faa; tag_ibr_wcas; tag_ibr_tpa; two_ge_ibr;
]

(* Demonstration oracles: deliberately broken schemes used to prove
   the fault checker works.  Not in [all]. *)
let oracles =
  [ unsafe_free; two_ge_unfenced; qsbr_noncas; ebr_noflush;
    debra_norestart ]

(* The lineup measured in Fig. 8–10 (TagIBR-TPA is described but not
   plotted in the paper; we include it in our extended runs). *)
let paper_set = [
  no_mm; ebr; hp; he; po_ibr;
  tag_ibr; tag_ibr_faa; tag_ibr_wcas; two_ge_ibr;
]

(* The robust interval-based family introduced by the paper. *)
let ibr_family = [
  po_ibr; tag_ibr; tag_ibr_faa; tag_ibr_wcas; tag_ibr_tpa; two_ge_ibr;
]

let find name =
  let target = String.lowercase_ascii name in
  List.find_opt
    (fun e -> String.lowercase_ascii e.name = target)
    (all @ oracles)

let find_exn name =
  match find name with
  | Some e -> e
  | None ->
    (* [find] matches oracles too, so the error must list them. *)
    invalid_arg
      (Printf.sprintf "Registry.find_exn: unknown tracker %S (known: %s)"
         name
         (String.concat ", " (List.map (fun e -> e.name) (all @ oracles))))

let props { tracker = (module T : Tracker_intf.TRACKER); _ } = T.props

(* The Fig. 7 tradeoff table, one row per scheme. *)
let fig7_rows () =
  List.map (fun e ->
    let p = props e in
    (e.name, p))
    (List.filter (fun e -> e.name <> "NoMM") all)

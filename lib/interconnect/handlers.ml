(* Per-node message handlers of a fabric, indexed by node id. *)

let set handlers node handler =
  let handlers =
    if node < Array.length handlers then handlers
    else begin
      let grown = Array.make (node + 1) None in
      Array.blit handlers 0 grown 0 (Array.length handlers);
      grown
    end
  in
  handlers.(node) <- Some handler;
  handlers

let deliver ~who handlers dst msg =
  match if dst >= 0 && dst < Array.length handlers then handlers.(dst) else None with
  | Some handler -> handler msg
  | None -> invalid_arg (Printf.sprintf "%s: no handler for node %d" who dst)

type entry = {
  platform : Protocol.platform;
  mutable queries : int;
  mutable failures : int;
  mutable last_tleft : float;
  mutable stamp : int;
}

type stats = { st_opened : int; st_evicted : int; st_resident : int }

type t = {
  lock : Mutex.t;
  table : (int, entry) Hashtbl.t;
  capacity : int;
  mutable next_sid : int;
  mutable tick : int;
  mutable opened : int;
  mutable evicted : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Session.create: capacity < 1";
  {
    lock = Mutex.create ();
    table = Hashtbl.create 64;
    capacity;
    next_sid = 1;
    tick = 0;
    opened = 0;
    evicted = 0;
  }

let locked t f = Mutex.protect t.lock f

let touch t entry =
  t.tick <- t.tick + 1;
  entry.stamp <- t.tick

(* Same discipline as {!Experiments.Strategy.Cache}: scan for the
   minimum stamp. O(n) per eviction, and n is the session bound — the
   scan is noise next to even one DP answer. *)
let evict_oldest t =
  let victim =
    Hashtbl.fold
      (fun sid entry acc ->
        match acc with
        | Some (_, best) when best.stamp <= entry.stamp -> acc
        | _ -> Some (sid, entry))
      t.table None
  in
  match victim with
  | None -> ()
  | Some (sid, _) ->
      Hashtbl.remove t.table sid;
      t.evicted <- t.evicted + 1

let open_ t platform =
  locked t (fun () ->
      if Hashtbl.length t.table >= t.capacity then evict_oldest t;
      let sid = t.next_sid in
      t.next_sid <- sid + 1;
      let entry =
        { platform; queries = 0; failures = 0; last_tleft = nan; stamp = 0 }
      in
      touch t entry;
      Hashtbl.replace t.table sid entry;
      t.opened <- t.opened + 1;
      sid)

let resolve t ~sid ~tleft ~recovering =
  locked t (fun () ->
      match Hashtbl.find_opt t.table sid with
      | None -> None
      | Some entry ->
          touch t entry;
          entry.queries <- entry.queries + 1;
          if recovering then entry.failures <- entry.failures + 1;
          entry.last_tleft <- tleft;
          Some entry.platform)

let close t sid =
  locked t (fun () ->
      match Hashtbl.find_opt t.table sid with
      | None -> false
      | Some _ ->
          Hashtbl.remove t.table sid;
          true)

let history t sid =
  locked t (fun () ->
      match Hashtbl.find_opt t.table sid with
      | None -> None
      | Some e -> Some (e.queries, e.failures))

let stats t =
  locked t (fun () ->
      {
        st_opened = t.opened;
        st_evicted = t.evicted;
        st_resident = Hashtbl.length t.table;
      })

type 'a t = {
  items : 'a Queue.t;
  capacity : int;
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Bqueue.create: capacity < 0";
  {
    items = Queue.create ();
    capacity;
    lock = Mutex.create ();
    nonempty = Condition.create ();
    closed = false;
  }

let locked t f = Mutex.protect t.lock f

let try_push t x =
  locked t (fun () ->
      if t.closed || Queue.length t.items >= t.capacity then false
      else begin
        Queue.push x t.items;
        Condition.signal t.nonempty;
        true
      end)

let pop t =
  locked t (fun () ->
      while Queue.is_empty t.items && not t.closed do
        Condition.wait t.nonempty t.lock
      done;
      Queue.take_opt t.items)

let drain_locked t max =
  let rec go acc n =
    if n >= max then List.rev acc
    else
      match Queue.take_opt t.items with
      | None -> List.rev acc
      | Some x -> go (x :: acc) (n + 1)
  in
  go [] 0

let pop_batch t ~max =
  if max < 1 then invalid_arg "Bqueue.pop_batch: max < 1";
  locked t (fun () ->
      while Queue.is_empty t.items && not t.closed do
        Condition.wait t.nonempty t.lock
      done;
      drain_locked t max)

let try_drain t ~max =
  if max < 1 then invalid_arg "Bqueue.try_drain: max < 1";
  locked t (fun () -> drain_locked t max)

let evict t ~f =
  locked t (fun () ->
      let kept = Queue.create () in
      let out = ref [] in
      Queue.iter
        (fun x -> if f x then out := x :: !out else Queue.push x kept)
        t.items;
      Queue.clear t.items;
      Queue.transfer kept t.items;
      List.rev !out)

let close t =
  locked t (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)

let length t = locked t (fun () -> Queue.length t.items)

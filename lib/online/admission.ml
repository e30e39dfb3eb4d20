let shed_victim ~priority ~id ~below candidates =
  Seq.fold_left
    (fun best c ->
      if priority c >= below then best
      else
        match best with
        | Some b
          when priority b < priority c
               || (priority b = priority c && id b > id c) ->
            best
        | _ -> Some c)
    None candidates

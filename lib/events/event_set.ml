module S = Xy_util.Sorted_ints

type t = S.t

let empty : t = [||]
let of_list = S.of_list
let of_array = S.of_array
let to_list = S.to_list
let cardinal = S.cardinal
let is_empty = S.is_empty
let mem = S.mem
let subset = S.subset
let union = S.union
let inter = S.inter
let equal = S.equal
let pp = S.pp

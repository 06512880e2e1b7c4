module drxmp/bench

go 1.24

require drxmp v0.0.0

replace drxmp => ../

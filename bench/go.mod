module chainlog/bench

go 1.24

require chainlog v0.0.0

replace chainlog => ../

module prtree/bench

go 1.23

require prtree v0.0.0

replace prtree => ../

module rdmc/benchmark

go 1.22

require rdmc v0.0.0

replace rdmc => ../

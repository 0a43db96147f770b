module pbecc/benchmark

go 1.22

require pbecc v0.0.0

replace pbecc => ../

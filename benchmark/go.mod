module transit/benchmark

go 1.24

require transit v0.0.0

replace transit => ../

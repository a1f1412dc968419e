module nwids/benchmark

go 1.22

require nwids v0.0.0

replace nwids => ../

module shadowdb/benchmark

go 1.22

require shadowdb v0.0.0

replace shadowdb => ../

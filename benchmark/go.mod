module terids/benchmark

go 1.24

require terids v0.0.0

replace terids => ../

module harmonia/benchmark

go 1.24

require harmonia v0.0.0

replace harmonia => ../

// eugenebench is a module of its own so that the benchmark builds from
// its own directory with its own build file; it reaches the serving
// program's internal packages through the replace directive below.
module eugene/cmd/eugenebench

go 1.24

require eugene v0.0.0

replace eugene => ../..

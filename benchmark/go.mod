// The cycle benchmark is a module of its own so that it builds from its
// own directory with its own build file; it imports the parent module's
// internal packages through the replace below (allowed because its path
// sits under ftmm/).
module ftmm/benchmark

go 1.22

require ftmm v0.0.0

replace ftmm => ../

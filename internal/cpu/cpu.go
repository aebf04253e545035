// Package cpu answers, once per process, which instruction-set
// extensions the assembly kernels may use. It holds the one copy of the
// CPUID/XGETBV probe that internal/parity's XOR fold and
// internal/workload's content synthesis both read.
package cpu

// Package repro is a Go reproduction of "Mockingbird: Flexible Stub
// Compilation from Pairs of Declarations" (Auerbach, Barton, Chu-Carroll,
// Raghavachari; IBM Research / ICDCS 1999).
//
// The library lives under internal/ (see DESIGN.md for the package
// inventory); cmd/mbird is the command-line tool; examples/ holds
// runnable scenarios; bench/ is the benchmark every quoted number comes
// from (EXPERIMENTS.md records the outcomes).
package repro

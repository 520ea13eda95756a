//go:build race

package main

// raceBuild says the race detector is compiled in: operations take several
// times as long and its shadow memory triples the resident set, so the
// smoke test stretches its windows and the memory envelope is not checked.
const raceBuild = true

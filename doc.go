// Package iris is a from-scratch reproduction of "Beyond the mega-data
// center: networking multi-data center regions" (Dukic et al., SIGCOMM
// 2020): the design-space analysis of regional data-center interconnects
// and the Iris all-optical, fiber-switched DCI architecture.
//
// The root package holds no code, only the benchmarks in bench_test.go
// that regenerate the paper's evaluation. The library lives under
// internal/ and its entry point is internal/core (plan a region, price
// it, allocate circuits); the programs under cmd/ and examples/ import
// it directly. DESIGN.md catalogues the packages and EXPERIMENTS.md the
// paper-vs-measured outcomes.
package iris

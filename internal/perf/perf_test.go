package perf

import "testing"

// The committed hot-path benchmarks, runnable the standard way:
//
//	go test ./internal/perf -bench . -benchmem
//
// cmd/muxbench runs the same bodies through testing.Benchmark to emit
// and gate BENCH_simcore.json.
func BenchmarkEngineStep(b *testing.B) { EngineStep(b) }
func BenchmarkFleetTick(b *testing.B)  { FleetTick(b) }
func BenchmarkRouterPick(b *testing.B) { RouterPick(b) }
func BenchmarkTraceGen(b *testing.B)   { TraceGen(b) }

package kvcache

import (
	"testing"

	"muxwise/internal/gpu"
	"muxwise/internal/sim"
)

func TestTransferBytes(t *testing.T) {
	if got := TransferBytes(1000, 131072); got != 1000*131072 {
		t.Fatalf("TransferBytes = %g", got)
	}
	if got := TransferBytes(0, 131072); got != 0 {
		t.Fatalf("zero tokens: %g", got)
	}
	if got := TransferBytes(1000, 0); got != 0 {
		t.Fatalf("zero bytes/token: %g", got)
	}
}

func TestTransferTime(t *testing.T) {
	link := gpu.Link{Class: gpu.LinkNVLink, Bandwidth: 600e9}
	// 4096 tokens of Llama-8B-sized KV (131072 B/token) over 600 GB/s
	// ≈ 0.895 ms on the wire plus the 8 ms default handoff.
	got := TransferTime(4096, 131072, link, 0)
	wire := sim.FromSeconds(4096 * 131072 / 600e9)
	want := DefaultHandoff + wire
	if got != want {
		t.Fatalf("TransferTime = %v, want %v", got, want)
	}
	// An explicit handoff replaces the default.
	if got := TransferTime(4096, 131072, link, 2*sim.Millisecond); got != 2*sim.Millisecond+wire {
		t.Fatalf("explicit handoff: %v", got)
	}
	// A slower link takes proportionally longer.
	pcie := gpu.Link{Class: gpu.LinkPCIe, Bandwidth: 32e9}
	if TransferTime(4096, 131072, pcie, 0) <= got {
		t.Fatal("PCIe stream not slower than NVLink")
	}
	// No bandwidth degenerates to the handoff alone.
	if got := TransferTime(4096, 131072, gpu.Link{}, 0); got != DefaultHandoff {
		t.Fatalf("zero-bandwidth link: %v, want bare handoff", got)
	}
}

func TestPoolPeekReadOnly(t *testing.T) {
	p := New(1<<20, DefaultPageTokens)
	pages := Stream(1, 4)
	p.Insert(pages)
	before := p.Stats()
	if got := p.Peek(pages); got != 4 {
		t.Fatalf("Peek = %d, want 4", got)
	}
	if got := p.Peek(Seq{Head: 1, HeadPages: 2, Body: 9, N: 3}); got != 2 {
		t.Fatalf("partial Peek = %d, want 2", got)
	}
	if got := p.Peek(Stream(9, 1)); got != 0 {
		t.Fatalf("miss Peek = %d, want 0", got)
	}
	if p.Stats() != before {
		t.Fatalf("Peek recorded statistics: %+v -> %+v", before, p.Stats())
	}
}

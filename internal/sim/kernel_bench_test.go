package sim

import (
	"fmt"
	"testing"

	"gatesim/internal/liberty"
	"gatesim/internal/logic"
	"gatesim/internal/netlist"
	"gatesim/internal/sdf"
)

// benchCombNetlist is a feed-forward cloud of packable single-output gates:
// a toggle on the primary input re-visits every gate, so ns/visit isolates
// the per-gate evaluation cost of the chosen path.
func benchCombNetlist(b *testing.B, gates int) *netlist.Netlist {
	b.Helper()
	lib := liberty.MustBuiltin()
	nl := netlist.New("benchcomb", lib)
	if err := nl.MarkInput(nl.AddNet("n0")); err != nil {
		b.Fatal(err)
	}
	net := func(i int) string { return fmt.Sprintf("n%d", i) }
	for i := 1; i <= gates; i++ {
		back5 := i - 5
		if back5 < 0 {
			back5 = 0
		}
		var err error
		switch i % 3 {
		case 0:
			_, err = nl.AddInstance(fmt.Sprintf("g%d", i), "INV",
				map[string]string{"A": net(i - 1), "Y": net(i)})
		case 1:
			_, err = nl.AddInstance(fmt.Sprintf("g%d", i), "NAND2",
				map[string]string{"A": net(i - 1), "B": net(back5), "Y": net(i)})
		default:
			_, err = nl.AddInstance(fmt.Sprintf("g%d", i), "XOR2",
				map[string]string{"A": net(i - 1), "B": net(back5), "Y": net(i)})
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	return nl
}

// benchSeqNetlist is a DFF shift register: every clock edge visits every
// flop through the generic interpreter (DFFs are ClassSeq).
func benchSeqNetlist(b *testing.B, gates int) *netlist.Netlist {
	b.Helper()
	lib := liberty.MustBuiltin()
	nl := netlist.New("benchseq", lib)
	for _, p := range []string{"clk", "d0"} {
		if err := nl.MarkInput(nl.AddNet(p)); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < gates; i++ {
		din := "d0"
		if i > 0 {
			din = fmt.Sprintf("q%d", i-1)
		}
		if _, err := nl.AddInstance(fmt.Sprintf("ff%d", i), "DFF_P",
			map[string]string{"CLK": "clk", "D": din, "Q": fmt.Sprintf("q%d", i), "QN": fmt.Sprintf("qn%d", i)}); err != nil {
			b.Fatal(err)
		}
	}
	return nl
}

func benchToggle(b *testing.B, nl *netlist.Netlist, toggleNet string, opts Options) {
	b.Helper()
	benchToggleEvery(b, nl, toggleNet, opts, 1)
}

// benchToggleEvery is benchToggle with a checkpoint cadence: folding every
// iteration keeps queues minimal but its full-design scan dwarfs the sweep
// cost on sparse workloads, so those use a coarser cadence.
func benchToggleEvery(b *testing.B, nl *netlist.Netlist, toggleNet string, opts Options, ckptEvery int) {
	b.Helper()
	e, err := New(nl, testLib, sdf.Uniform(nl, 2), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	nid, ok := nl.Net(toggleNet)
	if !ok {
		b.Fatalf("net %s missing", toggleNet)
	}
	// Settle the X-initialized state outside the timed region.
	if err := e.Inject(nid, 500, logic.V0); err != nil {
		b.Fatal(err)
	}
	if err := e.Advance(1000); err != nil {
		b.Fatal(err)
	}
	startVisits := e.Stats().Visits
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := int64(1000 + i*5000)
		if err := e.Inject(nid, t, logic.Value(1-i%2)); err != nil {
			b.Fatal(err)
		}
		if err := e.Advance(t + 5000); err != nil {
			b.Fatal(err)
		}
		// Fold and trim as a streaming driver would, so the queues stay
		// bounded and the loop measures steady state rather than growth.
		if (i+1)%ckptEvery == 0 {
			e.Checkpoint()
		}
	}
	b.StopTimer()
	visits := e.Stats().Visits - startVisits
	if visits > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(visits), "ns/visit")
	}
}

// benchSparseNetlist models the common signoff shape where most of the
// design is quiet: a short active chain off the toggled input feeds a DFF
// whose clock never moves, and the flop's output fans out to a wide cloud
// of gates that settle once and never change again. Per-iteration cost is
// dominated by how cheaply the executor walks past the quiet gates: clean
// dirty-bitset words and skipped segments.
func benchSparseNetlist(b *testing.B, quiet, active int) *netlist.Netlist {
	b.Helper()
	lib := liberty.MustBuiltin()
	nl := netlist.New("benchsparse", lib)
	for _, p := range []string{"n0", "clk"} {
		if err := nl.MarkInput(nl.AddNet(p)); err != nil {
			b.Fatal(err)
		}
	}
	for i := 1; i <= active; i++ {
		if _, err := nl.AddInstance(fmt.Sprintf("g%d", i), "INV",
			map[string]string{"A": fmt.Sprintf("n%d", i-1), "Y": fmt.Sprintf("n%d", i)}); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := nl.AddInstance("ff0", "DFF_P", map[string]string{
		"CLK": "clk", "D": fmt.Sprintf("n%d", active), "Q": "q0", "QN": "qn0",
	}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < quiet; i++ {
		if _, err := nl.AddInstance(fmt.Sprintf("w%d", i), "INV",
			map[string]string{"A": "q0", "Y": fmt.Sprintf("wy%d", i)}); err != nil {
			b.Fatal(err)
		}
	}
	return nl
}

// BenchmarkScriptReplay measures the compiled script-replay sweep. dense
// re-visits every gate each toggle, isolating replay dispatch; sparse keeps
// ~97% of the gates clean, isolating the cost of walking past quiet state
// (clean dirty-bitset words and skipped segments).
func BenchmarkScriptReplay(b *testing.B) {
	const gates = 512
	dense := benchCombNetlist(b, gates)
	sparse := benchSparseNetlist(b, gates, 16)
	b.Run("dense/scripts", func(b *testing.B) {
		benchToggle(b, dense, "n0", Options{Mode: ModeSerial})
	})
	b.Run("sparse/scripts", func(b *testing.B) {
		benchToggleEvery(b, sparse, "n0", Options{Mode: ModeSerial}, 32)
	})
}

// BenchmarkVisit isolates per-gate visit cost by kernel class. comb runs the
// packed-LUT kernel, seq runs a DFF shift register through the generic
// interpreter.
func BenchmarkVisit(b *testing.B) {
	const gates = 512
	comb := benchCombNetlist(b, gates)
	seq := benchSeqNetlist(b, gates)
	b.Run("comb", func(b *testing.B) {
		benchToggle(b, comb, "n0", Options{Mode: ModeSerial})
	})
	b.Run("seq", func(b *testing.B) {
		benchToggle(b, seq, "clk", Options{Mode: ModeSerial})
	})
}

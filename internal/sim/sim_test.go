package sim

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"mmt/internal/core"
	"mmt/internal/prog"
	"mmt/internal/workloads"
)

func TestPresetConfigurations(t *testing.T) {
	cases := []struct {
		p                Preset
		fetch, exec, reg bool
	}{
		{PresetBase, false, false, false},
		{PresetMMTF, true, false, false},
		{PresetMMTFX, true, true, false},
		{PresetMMTFXR, true, true, true},
		{PresetLimit, true, true, true},
	}
	for _, c := range cases {
		cfg, err := Configure(c.p, 2)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.SharedFetch != c.fetch || cfg.SharedExec != c.exec || cfg.RegMerge != c.reg {
			t.Errorf("%s: got %v/%v/%v", c.p, cfg.SharedFetch, cfg.SharedExec, cfg.RegMerge)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: invalid config: %v", c.p, err)
		}
	}
	if _, err := Configure(Preset("bogus"), 2); err == nil {
		t.Error("unknown preset accepted")
	}
	if !PresetLimit.IdenticalInputs() || PresetMMTFXR.IdenticalInputs() {
		t.Error("IdenticalInputs wrong")
	}
	if len(Presets()) != 5 {
		t.Error("preset list")
	}
}

func TestTable4Defaults(t *testing.T) {
	// The default machine must match Table 4 of the paper.
	cfg := core.DefaultConfig(4)
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"threads", cfg.Threads, 4},
		{"issue width", cfg.IssueWidth, 8},
		{"commit width", cfg.CommitWidth, 8},
		{"LSQ size", cfg.LSQSize, 64},
		{"ROB size", cfg.ROBSize, 256},
		{"int ALUs", cfg.IntALUs, 6},
		{"FPUs", cfg.FPUs, 3},
		{"PHT entries", cfg.Branch.PHTEntries, 1024},
		{"history bits", int(cfg.Branch.HistoryBits), 10},
		{"BTB entries", cfg.Branch.BTBEntries, 2048},
		{"RAS entries", cfg.Branch.RASEntries, 16},
		{"LVIP entries", cfg.LVIPSize, 4096},
		{"FHB entries", cfg.FHBSize, 32},
		{"trace cache bytes", cfg.TraceCacheBytes, 1 << 20},
		{"L1I bytes", cfg.Mem.L1I.SizeBytes, 64 << 10},
		{"L1D bytes", cfg.Mem.L1D.SizeBytes, 64 << 10},
		{"L1 ways", cfg.Mem.L1D.Ways, 4},
		{"line bytes", cfg.Mem.L1D.LineBytes, 64},
		{"L2 bytes", cfg.Mem.L2.SizeBytes, 4 << 20},
		{"L2 ways", cfg.Mem.L2.Ways, 8},
		{"L1 latency", int(cfg.Mem.L1Latency), 1},
		{"L2 latency", int(cfg.Mem.L2Latency), 6},
		{"DRAM latency", int(cfg.Mem.DRAMLatency), 200},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("Table 4 %s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

func TestTable3HardwareEstimates(t *testing.T) {
	h := core.EstimateHWCost(core.DefaultConfig(4))
	// Paper Table 3 values at the default configuration.
	if h.InstWinITIDBits != 4*256 {
		t.Errorf("ITID bits = %d", h.InstWinITIDBits)
	}
	if h.FHBBits != 32*32*4 {
		t.Errorf("FHB bits = %d", h.FHBBits)
	}
	if h.RSTBits != 11*50 {
		t.Errorf("RST bits = %d", h.RSTBits)
	}
	if h.RegStateBits != 256*4 {
		t.Errorf("RegState bits = %d", h.RegStateBits)
	}
	if h.LVIPBytes != 4*4096 {
		t.Errorf("LVIP bytes = %d", h.LVIPBytes)
	}
	if h.TrackRegBits != 4*50*9 {
		t.Errorf("TrackReg bits = %d", h.TrackRegBits)
	}
	if h.TotalBits() <= 0 {
		t.Error("total bits")
	}
	if s := h.String(); !strings.Contains(s, "FHB CAM") {
		t.Errorf("String output %q", s)
	}
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean = %f", g)
	}
	if Geomean(nil) != 0 {
		t.Error("empty geomean")
	}
}

func TestRunSingleApp(t *testing.T) {
	app, _ := workloads.ByName("libsvm")
	r, err := Run(app, PresetMMTFXR, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.TotalCommitted() == 0 || r.IPC() <= 0 {
		t.Error("empty run")
	}
	if r.Energy.Total() <= 0 || r.EnergyPerJob <= 0 {
		t.Error("no energy accounted")
	}
	if r.App != "libsvm" || r.Preset != PresetMMTFXR || r.Threads != 2 {
		t.Errorf("result metadata %+v", r)
	}
}

func TestRunByName(t *testing.T) {
	if _, err := RunByName("nosuch", PresetBase, 2, nil); err == nil {
		t.Error("unknown app accepted")
	}
	r, err := RunByName("twolf", PresetBase, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Committed[0] == 0 {
		t.Error("no instructions committed")
	}
}

func TestMutateHook(t *testing.T) {
	app, _ := workloads.ByName("libsvm")
	small, err := Run(app, PresetMMTFXR, 2, func(c *core.Config) { c.FHBSize = 8 })
	if err != nil {
		t.Fatal(err)
	}
	if small.Stats.Cycles == 0 {
		t.Error("mutated run empty")
	}
}

func TestSpeedupAndLimitOrdering(t *testing.T) {
	// On an ME app with near-identical instances, Limit >= FXR speedup is
	// expected (identical inputs give strictly more sharing).
	app, _ := workloads.ByName("vpr")
	base, err := Run(app, PresetBase, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	fxr, err := Run(app, PresetMMTFXR, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	limit, err := Run(app, PresetLimit, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	sFXR, sLim := Speedup(base, fxr), Speedup(base, limit)
	if sLim < sFXR {
		t.Errorf("Limit %.3f below FXR %.3f for vpr", sLim, sFXR)
	}
	// vpr has a large untapped potential (paper §6.1).
	if sLim < 1.1 {
		t.Errorf("vpr Limit speedup %.3f, want substantial", sLim)
	}
}

func TestFigure1SmokeTest(t *testing.T) {
	apps := pick(t, "ammp", "twolf")
	rows, err := Figure1(NewSerial(), apps, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		sum := r.ExecIdent + r.FetchIdent + r.NotIdent
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s fractions sum to %f", r.App, sum)
		}
	}
	// ammp's redundancy far exceeds twolf's divergent remainder.
	if rows[0].ExecIdent < rows[1].NotIdent {
		t.Logf("fig1 rows: %+v", rows)
	}
	out := FormatFig1(rows)
	if !strings.Contains(out, "ammp") || !strings.Contains(out, "average") {
		t.Errorf("format output missing rows:\n%s", out)
	}
}

func TestFigure2SmokeTest(t *testing.T) {
	apps := pick(t, "equake", "twolf")
	rows, err := Figure2(NewSerial(), apps, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Divergences == 0 {
			t.Errorf("%s: no divergences found", r.App)
		}
		// Cumulative fractions are monotonic.
		for i := 1; i < len(r.Cumulative); i++ {
			if r.Cumulative[i] < r.Cumulative[i-1] {
				t.Errorf("%s: cumulative not monotonic %v", r.App, r.Cumulative)
			}
		}
	}
	// twolf's divergences are short; equake has long ones (paper Fig. 2).
	var eq, tw Fig2Row
	for _, r := range rows {
		if r.App == "equake" {
			eq = r
		} else {
			tw = r
		}
	}
	if tw.Cumulative[0] < 0.85 {
		t.Errorf("twolf within-16 = %f, want > 0.85", tw.Cumulative[0])
	}
	if eq.Cumulative[0] > tw.Cumulative[0] {
		t.Errorf("equake (%f) should have longer divergences than twolf (%f)",
			eq.Cumulative[0], tw.Cumulative[0])
	}
	_ = FormatFig2(rows)
}

func pick(t *testing.T, names ...string) []workloads.App {
	t.Helper()
	var out []workloads.App
	for _, n := range names {
		a, ok := workloads.ByName(n)
		if !ok {
			t.Fatalf("missing app %s", n)
		}
		out = append(out, a)
	}
	return out
}

func TestFigure5SmokeTest(t *testing.T) {
	apps := pick(t, "swaptions", "blackscholes")
	rows, gm, err := Figure5Speedups(NewSerial(), apps, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || gm.App != "geomean" {
		t.Fatalf("rows %v gm %v", rows, gm)
	}
	for _, r := range rows {
		if r.FXR <= 0 || r.Limit <= 0 {
			t.Errorf("%s: non-positive speedups %+v", r.App, r)
		}
	}
	_ = FormatFig5(rows, gm, 2)
}

func TestFigure5bAnd5dSmokeTest(t *testing.T) {
	apps := pick(t, "water-ns")
	b5, err := Figure5b(NewSerial(), apps, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b5[0].ExecIdent < 0.4 {
		t.Errorf("water-ns exec-ident = %f", b5[0].ExecIdent)
	}
	d5, err := Figure5d(NewSerial(), apps, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d5[0].Merge < 0.9 {
		t.Errorf("water-ns MERGE = %f", d5[0].Merge)
	}
	_ = FormatFig5b(b5)
	_ = FormatFig5d(d5)
}

func TestFigure6SmokeTest(t *testing.T) {
	apps := pick(t, "swaptions")
	rows, err := Figure6(NewSerial(), apps)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.SMT2 != 1.0 {
		t.Errorf("normalization broken: %+v", r)
	}
	// MMT must not cost more energy per job than SMT at equal threads.
	if r.MMT2 > r.SMT2*1.01 || r.MMT4 > r.SMT4*1.01 {
		t.Errorf("MMT energy above SMT: %+v", r)
	}
	// Overhead is small (paper: < 2%).
	if r.OverheadFrac > 0.02 {
		t.Errorf("overhead fraction %f", r.OverheadFrac)
	}
	_ = FormatFig6(rows)
}

func TestFigure7SweepsSmokeTest(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	apps := pick(t, "equake")
	a7, err := Figure7a(NewSerial(), apps, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a7[0].Speedups) != len(FHBSizes) {
		t.Errorf("7a speedups %v", a7[0].Speedups)
	}
	c7, err := Figure7c(NewSerial(), apps, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(c7[0].Merge) != len(FHBSizes) {
		t.Errorf("7c lengths")
	}
	b7, err := Figure7b(NewSerial(), apps, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(b7) != len(LSPortCounts) {
		t.Errorf("7b points %v", b7)
	}
	d7, err := Figure7d(NewSerial(), apps, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(d7) != len(FetchWidths) {
		t.Errorf("7d points %v", d7)
	}
	_ = FormatFig7a(a7)
	_ = FormatFig7c(c7)
	_ = FormatSweep("7b", LSPortCounts, b7)
	_ = FormatSweep("7d", FetchWidths, d7)
}

func TestRemergeWithin512(t *testing.T) {
	apps := pick(t, "ammp")
	m, err := RemergeWithin512(NewSerial(), apps, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m["ammp"] < 0.5 {
		t.Errorf("ammp remerge-within-512 = %f", m["ammp"])
	}
}

// TestFinishedOutcomeReleasesCore: an outcome keeps its statistics, not
// the core that produced them (about 2 MB each), so a memo or job table
// full of outcomes does not pin a core per entry. The simulated system is
// the sentinel: the core holds it, so once it is collected, so is the
// core.
func TestFinishedOutcomeReleasesCore(t *testing.T) {
	app, _ := workloads.ByName("libsvm")
	collected := make(chan struct{})
	task := Task{App: app, Preset: PresetMMTFXR, Threads: 2, Build: func() (*prog.System, error) {
		sys, err := app.Build(2, PresetMMTFXR.IdenticalInputs())
		if err == nil {
			runtime.SetFinalizer(sys, func(*prog.System) { close(collected) })
		}
		return sys, err
	}}
	o, err := task.Execute()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			if o.Result.Stats.Cycles == 0 {
				t.Error("outcome lost its statistics")
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the core behind a finished outcome is still reachable")
}

package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"

	"amosim"
)

// The three workloads. Each is driven in a closed loop: the next simulation
// starts when the previous one has finished. A chunk is the unit the loop
// times: one tables-small pass, one traffic run, one barrier run. Every op of
// a chunk is checked against the recorded output; a mismatch, an error, a
// deadlock or a broken conservation or host-oracle check fails the chunk's ops.

// chunk is the outcome of one timed unit of a workload.
type chunk struct {
	ops, failed int
	// points and cacheHits count the sweep points a tables-small pass ran
	// and how many of them a sweep cache served (none should be).
	points    int
	cacheHits uint64
	// sim holds the chunk's simulated figures; nil for tables-small, whose
	// registry experiments return rendered tables only.
	sim *simFigures
}

// simFigures are the deterministic simulated outputs of one chunk.
type simFigures struct {
	window      amosim.Snapshot // measured-window snapshot diff
	cyclesPerOp float64
	p50, p999   uint64  // simulated sojourn percentiles (traffic only)
	achieved    float64 // achieved ÷ offered request rate (traffic only)
}

// workload is one benchmark workload.
type workload struct {
	name string
	// configs lists the distinct machine configurations the workload
	// builds; set-up time is the time NewMachine takes to build them all.
	configs []amosim.Config
	// prepare checks the recorded outputs exist and returns the chunk
	// function for a seed.
	prepare func(seed uint64, exp *expected) (func() chunk, error)
	// check, when set, runs once per run before measuring: scale-1024
	// reproduces the deterministic fields of the repository's hot-path and
	// parallel-kernel reference shapes there.
	check func(exp *expected) error
	// kernel, when set, counts kernel events per op on the traced run, on
	// a machine the benchmark builds itself, and the shard balance bound
	// of the parallel kernel at pdesShards.
	kernel func() (eventsPerOp, pdesBound float64, err error)
}

// tablesExperiments are the registry experiments of one tables-small pass,
// the amotables path at small scale.
var tablesExperiments = []string{"table2", "table4", "backends", "crossover"}

var tablesParams = amosim.ExperimentParams{
	Procs:   []int{16, 32, 64},
	Barrier: amosim.BarrierOptions{Episodes: 4, Warmup: 1},
	Lock:    amosim.LockOptions{Acquires: 2},
}

// scaleConfig is the scale-1024 shape: the LL/SC flat barrier, the most
// expensive baseline cell of every speedup table, on 1024 CPUs.
func scaleConfig() (amosim.Config, amosim.Mechanism, amosim.BarrierOptions) {
	return amosim.DefaultConfig(1024), amosim.LLSC, amosim.BarrierOptions{Episodes: 16, Warmup: 1}
}

// trafficOptions is the traffic-mpmc shape for one derived seed: Poisson
// arrivals at 8 requests per kilocycle, below saturation. 20000 measured
// requests leave 20 samples beyond p999.
func trafficOptions(seed uint64) amosim.TrafficOptions {
	return amosim.TrafficOptions{Process: "poisson", Rate: 8, Requests: 20000, Warmup: 256, Seed: trafficSeed(seed)}
}

const (
	trafficApp   = "mpmc"
	trafficProcs = 64
	pdesShards   = 8
)

// trafficSeed derives the simulator's arrival seed from the benchmark seed
// (SplitMix64 finalizer), so that every benchmark seed, 0 included, gives
// its own schedule.
func trafficSeed(seed uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

var workloads = []workload{
	{
		name:    "tables-small",
		configs: tablesConfigs(),
		prepare: prepareTables,
	},
	{
		name:    "traffic-mpmc",
		configs: []amosim.Config{amosim.DefaultConfig(trafficProcs)},
		prepare: prepareTraffic,
	},
	{
		name: "scale-1024",
		configs: func() []amosim.Config {
			cfg, _, _ := scaleConfig()
			return []amosim.Config{cfg}
		}(),
		prepare: prepareScale,
		check:   checkReferences,
		kernel:  scaleKernel,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// tablesConfigs lists every machine a tables-small pass builds: each scale
// on each backend.
func tablesConfigs() []amosim.Config {
	var cfgs []amosim.Config
	for _, p := range tablesParams.Procs {
		for _, b := range amosim.Backends {
			cfg := amosim.DefaultConfig(p)
			cfg.Backend = b
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// runExperiment renders one registry experiment on a fresh sweep cache, so
// that no point is served from a cache, with one sweep worker per CPU. It
// returns the table, the points run and the cache hits.
func runExperiment(name string) (table string, points int, hits uint64, err error) {
	e, ok := amosim.ExperimentByName(name)
	if !ok {
		return "", 0, 0, fmt.Errorf("no registry experiment %q", name)
	}
	var done atomic.Int64
	amosim.SetDefaultRunner(amosim.Runner{
		Workers:  runtime.GOMAXPROCS(0),
		Cache:    amosim.NewSweepCache(),
		Progress: func(amosim.SweepEvent) { done.Add(1) },
	})
	t, err := e.Run(tablesParams)
	points, hits = int(done.Load()), amosim.SweepCacheStats().Hits
	if err != nil {
		return "", points, hits, err
	}
	return t.Render(), points, hits, nil
}

func prepareTables(_ uint64, exp *expected) (func() chunk, error) {
	for _, name := range tablesExperiments {
		if _, ok := exp.Tables[name]; !ok {
			return nil, fmt.Errorf("no recorded table for %s", name)
		}
	}
	return func() chunk {
		var c chunk
		for _, name := range tablesExperiments {
			table, points, hits, err := runExperiment(name)
			c.points += points
			c.cacheHits += hits
			if points == 0 {
				points = 1 // an experiment that failed before its first point is one failed op
			}
			c.ops += points
			switch {
			case err != nil:
				fmt.Fprintf(os.Stderr, "tables-small: %s: %v\n", name, err)
				c.failed += points
			case table != exp.Tables[name]:
				fmt.Fprintf(os.Stderr, "tables-small: %s differs from the recorded table:\n%s", name, table)
				c.failed += points
			}
		}
		return c
	}, nil
}

// runTraffic runs one traffic-mpmc chunk and returns its result and digest.
func runTraffic(seed uint64) (amosim.TrafficResult, string, error) {
	o := trafficOptions(seed)
	spec, ok := amosim.TrafficWorkloadSpec(trafficApp, o)
	if !ok {
		return amosim.TrafficResult{}, "", fmt.Errorf("no traffic workload %q", trafficApp)
	}
	v, err := spec.Point(amosim.DefaultConfig(trafficProcs), amosim.AMO, amosim.WorkloadRunConfig{}).Run()
	if err != nil {
		return amosim.TrafficResult{}, "", err
	}
	r := v.(amosim.TrafficResult)
	if r.Injected != uint64(o.Requests) || r.Completed != r.Injected {
		return r, "", fmt.Errorf("injected %d and completed %d of %d requests", r.Injected, r.Completed, o.Requests)
	}
	if err := r.Metrics.CheckConservation(); err != nil {
		return r, "", err
	}
	d, err := digest(r)
	return r, d, err
}

func prepareTraffic(seed uint64, exp *expected) (func() chunk, error) {
	// want is the recorded digest for this seed; a seed without one is
	// checked against its own first chunk, so every chunk of a run must
	// repeat the first one exactly.
	want := exp.Traffic[strconv.FormatUint(seed, 10)]
	return func() chunk {
		n := trafficOptions(seed).Requests
		r, d, err := runTraffic(seed)
		if err == nil && want == "" {
			want = d
		}
		if err == nil && d != want {
			err = fmt.Errorf("result digest %s, want %s", d, want)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "traffic-mpmc: seed %d: %v\n", seed, err)
			return chunk{ops: n, failed: n}
		}
		return chunk{ops: n, sim: &simFigures{
			window:      r.Metrics,
			cyclesPerOp: float64(r.Cycles) / float64(n),
			p50:         r.Latency.P50,
			p999:        r.Latency.P999,
			achieved:    r.Achieved / r.Offered,
		}}
	}, nil
}

func prepareScale(_ uint64, exp *expected) (func() chunk, error) {
	if exp.Scale == "" {
		return nil, fmt.Errorf("no recorded scale-1024 digest")
	}
	cfg, mech, o := scaleConfig()
	return func() chunk {
		r, err := amosim.RunBarrier(cfg, mech, o)
		var d string
		if err == nil {
			d, err = digest(r)
		}
		if err == nil && d != exp.Scale {
			err = fmt.Errorf("result digest %s, want %s (%.1f cycles/episode)", d, exp.Scale, r.CyclesPerBarrier)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "scale-1024: %v\n", err)
			return chunk{ops: o.Episodes, failed: o.Episodes}
		}
		return chunk{ops: o.Episodes, sim: &simFigures{window: r.Metrics, cyclesPerOp: r.CyclesPerBarrier}}
	}, nil
}

// scaleKernel counts the scale-1024 shape's events on the sequential kernel
// and its shard balance on the parallel kernel.
func scaleKernel() (eventsPerOp, pdesBound float64, err error) {
	cfg, mech, o := scaleConfig()
	seq, err := kernelRun(cfg, mech, o)
	if err != nil {
		return 0, 0, err
	}
	cfg.Engine, cfg.Shards = "parallel", pdesShards
	par, err := kernelRun(cfg, mech, o)
	if err != nil {
		return 0, 0, err
	}
	return float64(seq.events) / float64(o.Warmup+o.Episodes), par.pdesBound(), nil
}

// kernelCounts are the event-kernel counts of one instrumented run.
type kernelCounts struct {
	events      uint64
	shardEvents []uint64
	window      uint64 // the parallel kernel's lookahead window, 0 on the sequential one
}

// pdesBound is the speedup bound the shard balance allows: all events over
// the busiest shard's.
func (k kernelCounts) pdesBound() float64 {
	var top uint64
	for _, e := range k.shardEvents {
		top = max(top, e)
	}
	if top == 0 {
		return 0
	}
	return float64(k.events) / float64(top)
}

// kernelRun drives the flat barrier on a machine the benchmark builds with
// kernel metrics on. It is the drive of the repository's hot-path and
// parallel-kernel reference benchmarks: warm-up and measured episodes in one
// phase, counted by the snapshot diff around it.
func kernelRun(cfg amosim.Config, mech amosim.Mechanism, o amosim.BarrierOptions) (kernelCounts, error) {
	o = o.WithDefaults()
	m, err := amosim.NewMachine(cfg)
	if err != nil {
		return kernelCounts{}, err
	}
	defer m.Shutdown()
	m.EnableKernelMetrics()
	b := amosim.NewBarrier(m, mech, cfg.Processors, 0)
	m.OnAllCPUs(func(c *amosim.CPU) {
		for e := 0; e < o.Warmup+o.Episodes; e++ {
			c.Think(uint64((c.ID()*37 + e*13) % o.WorkCycles))
			b.Wait(c)
		}
	})
	before := m.Metrics()
	if _, err := m.Run(); err != nil {
		return kernelCounts{}, err
	}
	d := m.Metrics().Diff(before)
	if d.Kernel == nil {
		return kernelCounts{}, fmt.Errorf("machine reported no kernel metrics")
	}
	k := kernelCounts{events: d.Kernel.EventsExecuted, shardEvents: d.Kernel.ShardEvents}
	if pe, ok := m.Eng.(interface{ Window() uint64 }); ok {
		k.window = pe.Window()
	}
	return k, nil
}

// barrierReference is a reference shape's deterministic fields.
type barrierReference struct {
	Procs                 int
	Mechanism             string
	Episodes, Warmup      int
	Shards                int // 0: sequential kernel only
	SimCycles             uint64
	CyclesPerBarrier      float64
	NetMessagesPerBarrier float64
	EventsPerRun          uint64
	WindowCycles          uint64   `json:",omitempty"`
	ShardEvents           []uint64 `json:",omitempty"`
	PdesBound             float64  `json:",omitempty"`
}

// measureReference reproduces a reference shape from its identity fields.
// With shards set, the sequential and parallel kernels must agree byte for
// byte and the kernel counts come from the parallel one.
func measureReference(ref barrierReference) (barrierReference, error) {
	mech, err := amosim.ParseMechanism(ref.Mechanism)
	if err != nil {
		return barrierReference{}, err
	}
	cfg := amosim.DefaultConfig(ref.Procs)
	o := amosim.BarrierOptions{Episodes: ref.Episodes, Warmup: ref.Warmup}
	r, err := amosim.RunBarrier(cfg, mech, o)
	if err != nil {
		return barrierReference{}, err
	}
	got := barrierReference{
		Procs: ref.Procs, Mechanism: ref.Mechanism, Episodes: ref.Episodes, Warmup: ref.Warmup, Shards: ref.Shards,
		SimCycles:             r.TotalCycles,
		CyclesPerBarrier:      r.CyclesPerBarrier,
		NetMessagesPerBarrier: r.NetMessagesPerBarrier,
	}
	if ref.Shards > 0 {
		cfg.Engine, cfg.Shards = "parallel", ref.Shards
		par, err := amosim.RunBarrier(cfg, mech, o)
		if err != nil {
			return barrierReference{}, err
		}
		seqD, err := digest(r)
		if err != nil {
			return barrierReference{}, err
		}
		parD, err := digest(par)
		if err != nil {
			return barrierReference{}, err
		}
		if seqD != parD {
			return barrierReference{}, fmt.Errorf("%d-CPU %s: parallel kernel diverged from sequential", ref.Procs, ref.Mechanism)
		}
	}
	k, err := kernelRun(cfg, mech, o)
	if err != nil {
		return barrierReference{}, err
	}
	got.EventsPerRun, got.WindowCycles, got.ShardEvents = k.events, k.window, k.shardEvents
	got.PdesBound = k.pdesBound()
	return got, nil
}

// checkReferences reproduces every reference shape and fails on any
// difference from its recorded fields.
func checkReferences(exp *expected) error {
	for _, ref := range exp.References {
		got, err := measureReference(ref)
		if err != nil {
			return err
		}
		want, err := json.Marshal(ref)
		if err != nil {
			return err
		}
		have, err := json.Marshal(got)
		if err != nil {
			return err
		}
		if string(have) != string(want) {
			return fmt.Errorf("reference shape drifted:\nwant %s\nhave %s", want, have)
		}
	}
	return nil
}

// digest is the SHA-256 of a result's JSON, snapshot included.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// expected holds the recorded outputs every op is checked against.
type expected struct {
	Tables map[string]string
	// Scale is the digest of the scale-1024 BarrierResult JSON.
	Scale string
	// Traffic maps a benchmark seed to its traffic-mpmc result digest.
	Traffic map[string]string
	// References are the deterministic fields of the repository's
	// hot-path (32-CPU AMO) and parallel-kernel (1024-CPU AMO, 8 shards)
	// reference shapes.
	References []barrierReference
}

//go:embed expected
var expectedFS embed.FS

const (
	expectedDir     = "expected"
	digestsFile     = "digests.json"
	referencesFile  = "references.json"
	recordedSeedMax = 31 // record traffic digests for seeds 0..recordedSeedMax
)

func loadExpected() (*expected, error) {
	exp := &expected{Tables: map[string]string{}, Traffic: map[string]string{}}
	for _, name := range tablesExperiments {
		b, err := expectedFS.ReadFile(expectedDir + "/" + name + ".txt")
		if err != nil {
			return nil, err
		}
		exp.Tables[name] = string(b)
	}
	var d struct {
		Scale   string
		Traffic map[string]string
	}
	if err := readJSON(digestsFile, &d); err != nil {
		return nil, err
	}
	exp.Scale, exp.Traffic = d.Scale, d.Traffic
	if err := readJSON(referencesFile, &exp.References); err != nil {
		return nil, err
	}
	return exp, nil
}

func readJSON(name string, v any) error {
	b, err := expectedFS.ReadFile(expectedDir + "/" + name)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// record rewrites the recorded tables and digests under dir from the
// current simulator. The reference shapes are not rewritten: they are
// copied from the repository's reference benchmark documents.
func record(dir string) error {
	for _, name := range tablesExperiments {
		table, _, _, err := runExperiment(name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := os.WriteFile(filepath.Join(dir, name+".txt"), []byte(table), 0o644); err != nil {
			return err
		}
	}
	cfg, mech, o := scaleConfig()
	r, err := amosim.RunBarrier(cfg, mech, o)
	if err != nil {
		return err
	}
	d := struct {
		Scale   string
		Traffic map[string]string
	}{Traffic: map[string]string{}}
	if d.Scale, err = digest(r); err != nil {
		return err
	}
	for seed := uint64(0); seed <= recordedSeedMax; seed++ {
		_, td, err := runTraffic(seed)
		if err != nil {
			return fmt.Errorf("traffic seed %d: %w", seed, err)
		}
		d.Traffic[strconv.FormatUint(seed, 10)] = td
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, digestsFile), append(b, '\n'), 0o644)
}

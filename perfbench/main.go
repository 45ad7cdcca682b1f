// Command amobench is the simulator's benchmark. It drives one workload in a
// closed loop for a fixed host time, checks every op's output against the
// recorded one, and prints the workload's metrics, the last line being one
// JSON object:
//
//	go run . -workload scale-1024 -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones (ops per reference
// second, set-up time, peak memory). With -trace 1 the run alternates plain and
// CPU-profiled chunks and prints the per-layer metrics instead: host shares
// folded from the profile, the simulator's own counters per op from the
// measured-window snapshot diffs, and the tracing overhead. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"amosim"
)

func main() {
	name := flag.String("workload", "", "workload to run: tables-small, traffic-mpmc or scale-1024")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "host seconds to measure")
	trace := flag.Int("trace", 0, "1 runs the profiled run and prints per-layer metrics")
	rec := flag.String("record", "", "rewrite the recorded outputs into this directory and exit")
	flag.Parse()

	if *rec != "" {
		if err := record(*rec); err != nil {
			fmt.Fprintln(os.Stderr, "amobench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloadByName(*name)
	if !ok || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "amobench: usage: -workload {tables-small|traffic-mpmc|scale-1024} -seed N -seconds S -trace {0|1} (got %q)\n", *name)
		os.Exit(2)
	}
	exp, err := loadExpected()
	if err != nil {
		fmt.Fprintln(os.Stderr, "amobench:", err)
		os.Exit(1)
	}
	res, err := run(os.Stdout, w, exp, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "amobench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "amobench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Throughput is counted per
// reference second (see reference.go): per CPU second the process used,
// because on a shared virtual machine time stolen by other tenants can
// halve a wall-clock rate from one run to the next, and relative to a fixed
// reference computation, because the host's speed drifts as well.
var endToEnd = []metricDef{
	{"ops_per_ref_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// hostLayers are the layers a profile sample can be folded into, besides
// runtime.sched and runtime.gc: every simulator module a workload links,
// the root package, the benchmark itself and other.
var hostLayers = []string{
	"sim", "machine", "memsys", "directory", "network", "cache", "core", "proc",
	"workload", "sweep", "syncron", "dsm", "syncprim", "topology", "config",
	"stats", "metrics", "trace", "traffic", "chaos", "isa",
	layerRoot, layerBench, layerOther,
}

// perLayer are the metrics of a traced run, in report order. Counters per
// op come from the measured-window snapshot diffs, which traffic-mpmc and
// scale-1024 return; kernel events are counted only on scale-1024, where
// the benchmark builds the machine itself. A metric that does not apply to
// a workload reads 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"error_rate", "ratio"},
		{"wall_ops_per_s", "1/s"},
		{"sim_cycles_per_op", "cycles/op"},
		{"sim_p50_cycles", "cycles"},
		{"sim_p999_cycles", "cycles"},
		{"tracing.overhead_share", "ratio"},
		{"runtime.sched_share", "ratio"},
		{"runtime.gc_share", "ratio"},
		{"runtime.allocs_per_op", "allocs/op"},
		{"runtime.alloc_kb_per_op", "KB/op"},
		{"sim.events_per_op", "events/op"},
		{"sim.events_per_s", "1/s"},
		{"sim.host_ns_per_event", "ns"},
		{"sim.pdes_bound", "ratio"},
		{"machine.new_ms", "ms"},
		{"machine.new_allocs", "allocs"},
		{"machine.new_kb", "KB"},
		{"memsys.reads_per_op", "count/op"},
		{"memsys.writes_per_op", "count/op"},
		{"directory.invalidations_per_op", "count/op"},
		{"directory.interventions_per_op", "count/op"},
		{"directory.word_updates_per_op", "count/op"},
		{"directory.occupancy_cycles_per_op", "cycles/op"},
		{"network.msgs_per_op", "count/op"},
		{"network.byte_hops_per_op", "count/op"},
		{"network.transit_cycles_per_op", "cycles/op"},
		{"cache.hit_ratio", "ratio"},
		{"cache.misses_per_op", "count/op"},
		{"core.ops_per_op", "count/op"},
		{"core.cache_hit_ratio", "ratio"},
		{"core.fine_puts_per_op", "count/op"},
		{"core.occupancy_cycles_per_op", "cycles/op"},
		{"proc.stall_share", "ratio"},
		{"proc.spin_share", "ratio"},
		{"proc.sc_failures_per_op", "count/op"},
		{"workload.achieved_ratio", "ratio"},
		{"sweep.points", "count"},
		{"sweep.cache_hits", "count"},
	}
	for _, l := range hostLayers {
		defs = append(defs, metricDef{l + ".host_share", "ratio"})
	}
	return defs
}

// Set-up is repeated setupReps times and setup_s is the median. A
// repetition builds the whole set of machines as often as it takes to use
// setupRepCPU of CPU time, so that a sub-millisecond set-up is timed over
// many builds.
const (
	setupReps   = 15
	setupRepCPU = 0.01
)

// setupStats are the set-up measurements of one run.
type setupStats struct {
	seconds    float64 // median CPU seconds to build every config once
	machineMs  float64 // the same per machine, in milliseconds
	allocs, kb float64 // heap allocations and KB per machine
}

// measureSetup times NewMachine on the workload's configs. Every set of
// builds starts from a collected heap and runs with the collector off, so
// the time is the builds' own work and not a collection of whatever the
// process left behind, and set-up garbage never adds to the run's peak
// memory.
func measureSetup(cfgs []amosim.Config) (setupStats, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	times := make([]float64, 0, setupReps)
	var allocs, bytes uint64
	builds := 0
	machines := make([]*amosim.Machine, len(cfgs))
	for r := 0; r < setupReps; r++ {
		spent, sets := 0.0, 0
		for ; sets == 0 || spent < setupRepCPU; sets++ {
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			start := cpuSeconds()
			for i, cfg := range cfgs {
				m, err := amosim.NewMachine(cfg)
				if err != nil {
					return setupStats{}, fmt.Errorf("set-up: %w", err)
				}
				machines[i] = m
			}
			spent += cpuSeconds() - start
			runtime.ReadMemStats(&m1)
			allocs += m1.Mallocs - m0.Mallocs
			bytes += m1.TotalAlloc - m0.TotalAlloc
			for _, m := range machines {
				m.Shutdown()
			}
		}
		times = append(times, spent/float64(sets))
		builds += sets * len(cfgs)
	}
	med := median(times)
	return setupStats{
		seconds:   med,
		machineMs: med * 1e3 / float64(len(cfgs)),
		allocs:    float64(allocs) / float64(builds),
		kb:        float64(bytes) / 1024 / float64(builds),
	}, nil
}

// loopStats accumulates the measured loop of one run.
type loopStats struct {
	attempted, failed int
	chunks            int
	// Ops per wall-clock and per reference second of each plain chunk,
	// and per reference second of each profiled chunk.
	rates, refRates []float64
	tracedRefRates  []float64
	sim             *simFigures
	simOps          int // ops of the chunk sim comes from
	// Traced runs only: profile samples per layer, and heap allocations
	// over the plain chunks.
	layers             map[string]int64
	allocs, allocBytes uint64
	allocOps           int
	// Sweep points of the first chunk and cache hits over the run.
	points    int
	cacheHits uint64
}

// measure runs chunks until seconds have passed. A traced run profiles
// every second chunk, so both halves see the same phase of the run, and
// runs at least one of each.
func measure(op func() chunk, seconds float64, traced bool) (loopStats, error) {
	s := loopStats{layers: map[string]int64{}}
	minChunks := 1
	if traced {
		minChunks = 2
	}
	start := time.Now()
	for i := 0; i < minChunks || time.Since(start).Seconds() < seconds; i++ {
		profiled := traced && i%2 == 1
		var prof bytes.Buffer
		var m0, m1 runtime.MemStats
		if profiled {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return s, err
			}
		} else if traced {
			runtime.ReadMemStats(&m0)
		}
		t0, cpu0 := time.Now(), cpuSeconds()
		c := op()
		rate := float64(c.ops) / time.Since(t0).Seconds()
		cpu := cpuSeconds() - cpu0
		if profiled {
			pprof.StopCPUProfile()
		}
		refRate := float64(c.ops) / cpu * reference() / refNominal
		if profiled {
			samples, err := decodeProfile(prof.Bytes())
			if err != nil {
				return s, err
			}
			foldSamples(samples, s.layers)
			s.tracedRefRates = append(s.tracedRefRates, refRate)
		} else {
			if traced {
				runtime.ReadMemStats(&m1)
				s.allocs += m1.Mallocs - m0.Mallocs
				s.allocBytes += m1.TotalAlloc - m0.TotalAlloc
				s.allocOps += c.ops
			}
			s.rates = append(s.rates, rate)
			s.refRates = append(s.refRates, refRate)
		}
		if i == 0 {
			s.points = c.points
		}
		s.cacheHits += c.cacheHits
		s.chunks++
		s.attempted += c.ops
		s.failed += c.failed
		if s.sim == nil && c.sim != nil {
			s.sim, s.simOps = c.sim, c.ops
		}
	}
	return s, nil
}

// run measures one workload against the recorded outputs and prints a
// readable report to out.
func run(out io.Writer, w workload, exp *expected, seed uint64, seconds float64, traced bool) (result, error) {
	op, err := w.prepare(seed, exp)
	if err != nil {
		return result{}, err
	}
	setup, err := measureSetup(w.configs)
	if err != nil {
		return result{}, err
	}
	correct := true
	if w.check != nil {
		if err := w.check(exp); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
			correct = false
		}
	}
	s, err := measure(op, seconds, traced)
	if err != nil {
		return result{}, err
	}
	res := result{
		Correct:   correct && s.failed == 0,
		Attempted: s.attempted,
		Failed:    s.failed,
		Metrics:   map[string]metric{},
	}
	opsPerRefS := median(s.refRates)
	fmt.Fprintf(out, "workload %s  seed %d  chunks %d  attempted %d  failed %d  error_rate %g\n",
		w.name, seed, s.chunks, s.attempted, s.failed, float64(s.failed)/float64(s.attempted))

	var defs []metricDef
	values := map[string]float64{}
	if !traced {
		defs = endToEnd
		values["ops_per_ref_s"] = opsPerRefS
		values["setup_s"] = setup.seconds
		values["peak_rss_mb"] = peakRSSMB()
	} else {
		defs = perLayer()
		if err := layerValues(values, w, s, setup, opsPerRefS); err != nil {
			return result{}, err
		}
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	report(out, defs, values)
	return res, nil
}

// layerValues fills the per-layer metrics of a traced run.
func layerValues(v map[string]float64, w workload, s loopStats, setup setupStats, opsPerRefS float64) error {
	v["error_rate"] = float64(s.failed) / float64(s.attempted)
	v["wall_ops_per_s"] = median(s.rates)
	if traced := median(s.tracedRefRates); opsPerRefS > 0 && traced > 0 {
		v["tracing.overhead_share"] = 1 - traced/opsPerRefS
	}
	v["machine.new_ms"] = setup.machineMs
	v["machine.new_allocs"] = setup.allocs
	v["machine.new_kb"] = setup.kb
	if s.allocOps > 0 {
		v["runtime.allocs_per_op"] = float64(s.allocs) / float64(s.allocOps)
		v["runtime.alloc_kb_per_op"] = float64(s.allocBytes) / 1024 / float64(s.allocOps)
	}

	// Host shares: any layer outside hostLayers counts as other.
	layers := map[string]int64{}
	for l, c := range s.layers {
		if l != layerSched && l != layerGC && !slices.Contains(hostLayers, l) {
			l = layerOther
		}
		layers[l] += c
	}
	sh := shares(layers)
	v["runtime.sched_share"] = sh[layerSched]
	v["runtime.gc_share"] = sh[layerGC]
	for _, l := range hostLayers {
		v[l+".host_share"] = sh[l]
	}

	v["sweep.points"] = float64(s.points)
	v["sweep.cache_hits"] = float64(s.cacheHits)
	if w.kernel != nil {
		events, bound, err := w.kernel()
		if err != nil {
			return err
		}
		v["sim.events_per_op"] = events
		v["sim.events_per_s"] = events * opsPerRefS
		if events > 0 && opsPerRefS > 0 {
			v["sim.host_ns_per_event"] = 1e9 / (events * opsPerRefS)
		}
		v["sim.pdes_bound"] = bound
	}
	if f := s.sim; f != nil {
		snapshotValues(v, f, float64(s.simOps))
	}
	return nil
}

// snapshotValues derives the per-op simulator counters of one chunk's
// measured window.
func snapshotValues(v map[string]float64, f *simFigures, ops float64) {
	win := f.window
	per := func(x uint64) float64 { return float64(x) / ops }
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	v["sim_cycles_per_op"] = f.cyclesPerOp
	v["sim_p50_cycles"] = float64(f.p50)
	v["sim_p999_cycles"] = float64(f.p999)
	v["workload.achieved_ratio"] = f.achieved
	v["memsys.reads_per_op"] = per(win.Memory.Reads)
	v["memsys.writes_per_op"] = per(win.Memory.Writes)
	v["network.msgs_per_op"] = per(win.Network.Messages)
	v["network.byte_hops_per_op"] = per(win.Network.ByteHops)
	v["network.transit_cycles_per_op"] = per(win.Network.TransitCycles)

	var inval, interv, updates, dirOcc, amuOps, amuHits, puts, amuOcc uint64
	for _, n := range win.Nodes {
		inval += n.Directory.Invalidations
		interv += n.Directory.Interventions
		updates += n.Directory.WordUpdates
		dirOcc += n.Directory.OccupancyCycles
		amuOps += n.AMU.Ops
		amuHits += n.AMU.CacheHits
		puts += n.AMU.FinePuts
		amuOcc += n.AMU.OccupancyCycles
	}
	v["directory.invalidations_per_op"] = per(inval)
	v["directory.interventions_per_op"] = per(interv)
	v["directory.word_updates_per_op"] = per(updates)
	v["directory.occupancy_cycles_per_op"] = per(dirOcc)
	v["core.ops_per_op"] = per(amuOps)
	v["core.cache_hit_ratio"] = ratio(amuHits, amuOps)
	v["core.fine_puts_per_op"] = per(puts)
	v["core.occupancy_cycles_per_op"] = per(amuOcc)

	var hits, misses, scFail uint64
	for _, c := range win.CPUs {
		hits += c.Cache.Hits
		misses += c.Cache.Misses
		scFail += c.Counters.SCFailures
	}
	v["cache.hit_ratio"] = ratio(hits, hits+misses)
	v["cache.misses_per_op"] = per(misses)
	v["proc.sc_failures_per_op"] = per(scFail)
	a := win.Attribution()
	v["proc.stall_share"] = ratio(a.MemoryStall, a.TotalCPUCycles)
	v["proc.spin_share"] = ratio(a.SpinIdle, a.TotalCPUCycles)
}

// report prints the metrics as a readable table: the host shares last,
// largest first.
func report(out io.Writer, defs []metricDef, v map[string]float64) {
	var shareDefs []metricDef
	for _, d := range defs {
		if d.name == "runtime.sched_share" || d.name == "runtime.gc_share" || strings.HasSuffix(d.name, ".host_share") {
			shareDefs = append(shareDefs, d)
			continue
		}
		fmt.Fprintf(out, "  %-36s %16.6g %s\n", d.name, v[d.name], d.unit)
	}
	sort.SliceStable(shareDefs, func(i, j int) bool { return v[shareDefs[i].name] > v[shareDefs[j].name] })
	for _, d := range shareDefs {
		fmt.Fprintf(out, "  %-36s %16.6g %s\n", d.name, v[d.name], d.unit)
	}
}

// peakRSSMB is the process's peak resident memory in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuSeconds is the CPU time the process has used, all threads together.
// On a shared virtual machine it excludes the time other tenants steal,
// which wall time does not.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

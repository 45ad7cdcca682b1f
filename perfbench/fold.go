package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Profile folding: every CPU-profile sample is charged to exactly one layer,
// so the per-layer host shares of a traced run sum to 1.
//
// A stack is walked from the leaf outward and the first frame that decides
// wins:
//   - a frame of the simulator (amosim/internal/<module>) charges <module>;
//     the root package charges "amosim" and the benchmark itself "bench";
//   - a Go scheduler, channel, lock or coroutine frame charges
//     runtime.sched: these are the process switches of sim/process.go;
//   - an allocator or garbage-collector frame charges runtime.gc.
//
// Every other frame (map lookups, memmove, hashing, ...) is neutral and is
// charged to the caller that asked for it, so a map lookup inside memsys is
// memsys time. A stack with no deciding frame at all charges "other".

// Layer names the fold produces besides the simulator's own modules.
const (
	layerSched = "runtime.sched"
	layerGC    = "runtime.gc"
	layerRoot  = "amosim"
	layerBench = "bench"
	layerOther = "other"
)

// schedFrames and gcFrames are runtime function-name prefixes. A prefix ends
// where the runtime's own naming makes it unambiguous (runtime.chanrecv
// covers chanrecv1 and chanrecv2).
var schedFrames = []string{
	"runtime.chanrecv", "runtime.chansend", "runtime.selectgo", "runtime.closechan",
	"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.park_m",
	"runtime.schedule", "runtime.findRunnable", "runtime.execute", "runtime.gogo",
	"runtime.mcall", "runtime.casgstatus", "runtime.runqget", "runtime.runqput",
	"runtime.runqsteal", "runtime.globrunq", "runtime.wakep", "runtime.startm",
	"runtime.stopm", "runtime.mPark", "runtime.notesleep", "runtime.notewakeup",
	"runtime.futex", "runtime.lock2", "runtime.unlock2", "runtime.lockWithRank",
	"runtime.usleep", "runtime.osyield", "runtime.sysmon", "runtime.netpoll",
	"runtime.semacquire", "runtime.semrelease", "runtime.goexit0", "runtime.newproc",
	"runtime.gosched", "runtime.Gosched", "runtime.goschedImpl", "runtime.coro",
	"runtime.send", "runtime.recv", "runtime._System",
	"sync.(*Mutex)", "sync.(*RWMutex)", "sync.(*WaitGroup)", "sync.(*Cond)",
	"internal/sync.",
}

var gcFrames = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
	"runtime.makemap", "runtime.newarray", "runtime.rawstring", "runtime.rawbyteslice",
	"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssist", "runtime.gcStart",
	"runtime.gcMark", "runtime.gcSweep", "runtime.gcWriteBarrier", "runtime.wbBuf",
	"runtime.bulkBarrier", "runtime.scanobject", "runtime.scanblock", "runtime.scanstack",
	"runtime.markroot", "runtime.greyobject", "runtime.findObject", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.sweepone", "runtime.(*mspan)", "runtime.(*mheap)",
	"runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*gcWork)", "runtime.(*sweepLocked)",
	"runtime.(*gcControllerState)", "runtime.(*pageAlloc)", "runtime.(*scavenger",
	"runtime.heapSetType", "runtime.typePointers", "runtime._GC",
}

// frameLayer returns the layer a frame decides, or "" for a neutral frame.
func frameLayer(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "amosim/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, layerRoot+".") {
		return layerRoot
	}
	if strings.HasPrefix(fn, "main.") {
		return layerBench
	}
	for _, p := range schedFrames {
		if strings.HasPrefix(fn, p) {
			return layerSched
		}
	}
	for _, p := range gcFrames {
		if strings.HasPrefix(fn, p) {
			return layerGC
		}
	}
	return ""
}

// foldStack returns the layer one sample is charged to; frames run from
// the leaf outward.
func foldStack(frames []string) string {
	for _, fn := range frames {
		if l := frameLayer(fn); l != "" {
			return l
		}
	}
	return layerOther
}

// sample is one CPU-profile stack (leaf first) with its sample count.
type sample struct {
	frames []string
	count  int64
}

// foldSamples sums sample counts per layer.
func foldSamples(samples []sample, into map[string]int64) {
	for _, s := range samples {
		into[foldStack(s.frames)] += s.count
	}
}

// shares turns per-layer counts into shares of their total.
func shares(counts map[string]int64) map[string]float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	out := make(map[string]float64, len(counts))
	if total == 0 {
		return out
	}
	for l, c := range counts {
		out[l] = float64(c) / float64(total)
	}
	return out
}

// decodeProfile reads the samples of a gzipped pprof profile, as
// runtime/pprof writes it. Only the fields folding needs are decoded:
// samples (location ids and their first value, the sample count),
// locations (their inlined line entries, innermost first), functions and
// the string table.
func decodeProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		rawSamples []rawSample
		locFuncs   = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName   = map[uint64]int64{}    // function id -> string index
		strs       []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Profile.sample
			var s rawSample
			first := true
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1: // Sample.location_id
					ids, err := uints(wire, v, b)
					s.locs = append(s.locs, ids...)
					return err
				case 2: // Sample.value
					vals, err := uints(wire, v, b)
					if first && len(vals) > 0 {
						s.count, first = int64(vals[0]), false
					}
					return err
				}
				return nil
			})
			rawSamples = append(rawSamples, s)
			return err
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1: // Location.id
					id = v
				case 4: // Location.line
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 { // Line.function_id
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Profile.function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1: // Function.id
					id = v
				case 2: // Function.name
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	out := make([]sample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		s := sample{count: rs.count}
		for _, loc := range rs.locs {
			for _, fid := range locFuncs[loc] {
				idx := funcName[fid]
				if idx < 0 || int(idx) >= len(strs) {
					return nil, fmt.Errorf("profile: function %d names string %d of %d", fid, idx, len(strs))
				}
				s.frames = append(s.frames, strs[idx])
			}
		}
		out = append(out, s)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField calls fn for every field of one protobuf message: v holds a
// varint or fixed value, b the bytes of a length-delimited field.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := varint(msg)
		if n == 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = varint(msg)
			if n == 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := varint(msg)
			if n == 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// uints reads a repeated integer field, packed (wire type 2) or not.
func uints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := varint(b)
		if n == 0 {
			return nil, errTruncated
		}
		out, b = append(out, x), b[n:]
	}
	return out, nil
}

// varint decodes one base-128 varint, returning its length (0 if malformed).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

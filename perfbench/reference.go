package main

// The reference computation. The hosts this benchmark runs on change speed
// by tens of percent over minutes, in CPU time as well as wall time, as
// other tenants load the shared machine. A fixed computation run right
// after every chunk sees the same drift, so a chunk's CPU time divided by
// the reference's cancels most of it: on the 2-vCPU machines measured (see
// README.md), the medians of 30-second windows of scale-1024 chunks spread
// 15% in raw CPU time and 6% relative to the reference.
//
// The reference does the two kinds of host work that dominate the
// simulator's profile: integer arithmetic, and goroutine handoffs over
// unbuffered channels. It allocates only two channels and a goroutine, so
// it leaves the run's peak memory as it finds it, and it does not touch the
// simulator, so a change to the simulator cannot change it.

const (
	refArith    = 25_000_000
	refHandoffs = 50_000
	// refNominal is roughly the reference's CPU time on the measured
	// machines: a rate per reference second is a rate per CPU second
	// scaled to a host on which the reference takes refNominal.
	refNominal = 0.1
)

// refSink keeps the reference's result alive.
var refSink uint64

// reference runs the reference computation and returns its CPU seconds.
func reference() float64 {
	start := cpuSeconds()
	x := uint64(1)
	for i := 0; i < refArith; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 29
	}
	ping, pong := make(chan uint64), make(chan uint64)
	go func() {
		defer close(pong)
		for v := range ping {
			pong <- v + 1
		}
	}()
	for i := 0; i < refHandoffs; i++ {
		ping <- x
		x = <-pong
	}
	close(ping)
	for range pong {
	}
	refSink += x
	return cpuSeconds() - start
}

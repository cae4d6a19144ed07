package main

import (
	"testing"
	"time"
)

// A stall on the only worker must show in the lag and in the due-time
// latency of every request that was due while it lasted, even though
// those requests themselves are instant.
func TestPaceCountsStallAgainstLaterRequests(t *testing.T) {
	const stall = 60 * time.Millisecond
	p := pace(1000, 40, 1, nil, func(i int, _ time.Time) bool {
		if i == 10 {
			time.Sleep(stall)
		}
		return true
	})
	if p.InflightMax != 1 {
		t.Errorf("in flight at most %d, want 1", p.InflightMax)
	}
	if p.maxLag() < stall-15*time.Millisecond {
		t.Errorf("max lag %v, want about %v", p.maxLag(), stall)
	}
	if p.Lag[11] < stall-15*time.Millisecond {
		t.Errorf("request 11 lag %v, want about %v", p.Lag[11], stall)
	}
	if p.Latency[11] < p.Lag[11] {
		t.Errorf("request 11 latency %v below its lag %v", p.Latency[11], p.Lag[11])
	}
	if p.Latency[10] < stall {
		t.Errorf("stalled request latency %v, want at least %v", p.Latency[10], stall)
	}
	if late := p.lateCount(); late < 20 {
		t.Errorf("%d late requests, want the ~%d due during the stall", late, 30)
	}
	if n := failures(p); n != 0 {
		t.Errorf("%d failed, want 0", n)
	}
}

// With a second worker free, the same stall delays nobody else.
func TestPaceOtherWorkerAbsorbsStall(t *testing.T) {
	p := pace(200, 40, 2, nil, func(i int, _ time.Time) bool {
		if i == 5 {
			time.Sleep(60 * time.Millisecond)
		}
		return i != 7
	})
	if p.InflightMax > 2 {
		t.Errorf("in flight at most %d, want ≤ 2", p.InflightMax)
	}
	if p.Lag[12] > 20*time.Millisecond {
		t.Errorf("request 12 lag %v with a free worker", p.Lag[12])
	}
	if n := failures(p); n != 1 || p.OK[7] {
		t.Errorf("failed = %d, OK[7] = %v; want exactly request 7 failed", n, p.OK[7])
	}
}

func TestLagGrowth(t *testing.T) {
	p := &paced{Lag: []time.Duration{0, 0, 1, 2, 3, 4, 8, 8}}
	if got := p.lagGrowth(); got != 8 {
		t.Errorf("lag growth %v, want 8", got)
	}
}

func TestPaceStopsWhenAsked(t *testing.T) {
	stop := make(chan struct{})
	p := pace(1000, 1000, 2, stop, func(i int, _ time.Time) bool {
		if i == 20 {
			close(stop)
		}
		return true
	})
	if n := len(p.Latency); n < 21 || n > 30 || len(p.Lag) != n || len(p.OK) != n {
		t.Errorf("stopped phase kept %d/%d/%d requests, want ~21", len(p.Latency), len(p.Lag), len(p.OK))
	}
}

func failures(p *paced) int {
	n := 0
	for _, ok := range p.OK {
		if !ok {
			n++
		}
	}
	return n
}

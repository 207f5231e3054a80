package fault

import (
	"math"
	"testing"
)

func TestParseAndDefaults(t *testing.T) {
	p, err := Parse([]byte(`{
		"seed": 7,
		"stragglers": [{"rank": 1, "factor": 3, "from": 0.01, "until": 0.02}],
		"links": [{"from": -1, "to": 2, "max_delay": 0.0002}],
		"drops": [{"from": 0, "to": -1, "prob": 0.1}],
		"pauses": [{"rank": 2, "at": 0.05, "duration": 0.01}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.RetryTimeout != DefaultRetryTimeout || p.MaxRetries != DefaultMaxRetries {
		t.Fatalf("defaults not applied: timeout %g retries %d", p.RetryTimeout, p.MaxRetries)
	}
}

func TestParseRejectsBadPlans(t *testing.T) {
	bad := []string{
		`{"stragglers": [{"rank": 0, "factor": 0}]}`,
		`{"stragglers": [{"rank": 0, "factor": 2, "from": 1, "until": 0.5}]}`,
		`{"links": [{"from": 0, "to": 1, "max_delay": -1}]}`,
		`{"drops": [{"from": 0, "to": 1, "prob": 1.5}]}`,
		`{"pauses": [{"rank": 0, "at": 0, "duration": -1}]}`,
		`{"retry_timeout": -1}`,
		`not json`,
	}
	for _, s := range bad {
		if _, err := Parse([]byte(s)); err == nil {
			t.Errorf("Parse(%s) accepted an invalid plan", s)
		}
	}
}

func TestComputeFactorWindow(t *testing.T) {
	p := &Plan{Stragglers: []Straggler{
		{Rank: 1, Factor: 3, From: 0.01, Until: 0.02},
		{Rank: 1, Factor: 2}, // forever
	}}
	if got := p.ComputeFactor(0, 0.015); got != 1 {
		t.Fatalf("healthy rank slowed: factor %g", got)
	}
	if got := p.ComputeFactor(1, 0.015); got != 6 {
		t.Fatalf("inside window: factor %g, want 6", got)
	}
	if got := p.ComputeFactor(1, 0.5); got != 2 {
		t.Fatalf("outside window: factor %g, want 2", got)
	}
}

func TestPauseEnd(t *testing.T) {
	p := &Plan{Pauses: []Pause{{Rank: 2, At: 0.5, Duration: 0.25}}}
	if _, hit := p.PauseEnd(2, 0.4); hit {
		t.Fatal("pause before window")
	}
	if end, hit := p.PauseEnd(2, 0.625); !hit || end != 0.75 {
		t.Fatalf("pause in window: end %g hit %v", end, hit)
	}
	if _, hit := p.PauseEnd(1, 0.625); hit {
		t.Fatal("pause hit wrong rank")
	}
	if _, hit := p.PauseEnd(2, 0.75); hit {
		t.Fatal("pause window end is exclusive")
	}
}

func TestDeterministicDraws(t *testing.T) {
	a := &Plan{Seed: 42, Drops: []Drop{{From: -1, To: -1, Prob: 0.5}},
		Links: []LinkJitter{{From: -1, To: -1, MaxDelay: 1e-4}}}
	b := &Plan{Seed: 42, Drops: []Drop{{From: -1, To: -1, Prob: 0.5}},
		Links: []LinkJitter{{From: -1, To: -1, MaxDelay: 1e-4}}}
	for seq := int64(0); seq < 100; seq++ {
		if a.DropAttempt(0, 1, seq, 0) != b.DropAttempt(0, 1, seq, 0) {
			t.Fatalf("drop draw seq %d differs between identical plans", seq)
		}
		if a.SendDelay(0, 1, seq) != b.SendDelay(0, 1, seq) {
			t.Fatalf("jitter draw seq %d differs between identical plans", seq)
		}
	}
	// Different seeds decorrelate.
	c := &Plan{Seed: 43, Drops: a.Drops, Links: a.Links}
	same := 0
	for seq := int64(0); seq < 200; seq++ {
		if a.DropAttempt(0, 1, seq, 0) == c.DropAttempt(0, 1, seq, 0) {
			same++
		}
	}
	if same == 200 {
		t.Fatal("seed has no effect on drop draws")
	}
}

func TestDrawStatistics(t *testing.T) {
	p := &Plan{Seed: 9, Drops: []Drop{{From: -1, To: -1, Prob: 0.3}},
		Links: []LinkJitter{{From: -1, To: -1, MaxDelay: 2e-4}}}
	drops := 0
	var maxDelay float64
	const n = 10000
	for seq := int64(0); seq < n; seq++ {
		if p.DropAttempt(3, 5, seq, 0) {
			drops++
		}
		d := p.SendDelay(3, 5, seq)
		if d < 0 || d >= 2e-4 {
			t.Fatalf("jitter %g outside [0, max_delay)", d)
		}
		if d > maxDelay {
			maxDelay = d
		}
	}
	frac := float64(drops) / n
	if math.Abs(frac-0.3) > 0.03 {
		t.Fatalf("drop fraction %.3f far from prob 0.3", frac)
	}
	if maxDelay < 1e-4 {
		t.Fatalf("jitter never exceeds half its range (max seen %g)", maxDelay)
	}
}

func TestWildcardMatching(t *testing.T) {
	p := &Plan{Seed: 1, Drops: []Drop{{From: 0, To: 2, Prob: 1}}}
	if p.DropAttempt(1, 2, 0, 0) {
		t.Fatal("rule for 0->2 matched 1->2")
	}
	if !p.DropAttempt(0, 2, 0, 0) {
		t.Fatal("prob-1 rule did not drop")
	}
}

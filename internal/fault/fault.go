// Package fault defines seeded, deterministic fault plans for the simulated
// machine: per-rank straggler slowdowns, per-link latency jitter, message
// drops, and rank pauses (a stand-in for transient node loss). The paper's
// terascale numbers assume a flawless 2048-node machine; production runs at
// that scale live with degraded hardware, so comm.Network consults a Plan on
// every Send/Recv/Compute and the solver must complete anyway.
//
// Every decision is a pure function of (seed, link, per-sender message
// sequence, attempt): no shared RNG stream exists, so fault injection is
// deterministic regardless of goroutine scheduling, and the same plan seed
// yields byte-identical traces run after run. A nil *Plan injects nothing
// and costs the fault-free paths nothing but one pointer check, so runs
// without a plan stay bitwise identical to the pre-fault code.
package fault

import (
	"encoding/json"
	"fmt"
	"os"
)

// Default protocol parameters applied by Normalize when the plan leaves
// them zero.
const (
	// DefaultRetryTimeout is the sender-side retransmit timeout in virtual
	// seconds (25x the ASCI-Red message latency).
	DefaultRetryTimeout = 500e-6
	// DefaultMaxRetries bounds the retransmissions per message; exceeding it
	// makes delivery fail loudly instead of hanging the run.
	DefaultMaxRetries = 8
)

// Straggler slows one rank's local compute by Factor inside a virtual-time
// window ([From, Until); Until = 0 means forever).
type Straggler struct {
	Rank   int     `json:"rank"`
	Factor float64 `json:"factor"`          // compute-time multiplier (> 1 is slower)
	From   float64 `json:"from,omitempty"`  // window start, virtual seconds
	Until  float64 `json:"until,omitempty"` // window end; 0 = no end
}

// LinkJitter adds a seeded uniform [0, MaxDelay) extra latency to every
// message on matching links. From/To of -1 match any rank.
type LinkJitter struct {
	From     int     `json:"from"`
	To       int     `json:"to"`
	MaxDelay float64 `json:"max_delay"` // virtual seconds
}

// Drop loses messages on matching links with probability Prob per delivery
// attempt (retransmissions redraw). From/To of -1 match any rank.
type Drop struct {
	From int     `json:"from"`
	To   int     `json:"to"`
	Prob float64 `json:"prob"`
}

// Pause freezes one rank for Duration virtual seconds starting at virtual
// time At: any operation the rank would start inside the window waits until
// the window ends. It models a transient node loss (the node comes back
// with its state intact; permanent loss is a restart from a checkpoint).
type Pause struct {
	Rank     int     `json:"rank"`
	At       float64 `json:"at"`
	Duration float64 `json:"duration"`
}

// Plan is a complete deterministic fault schedule plus the recovery-protocol
// parameters of the transport (retransmit timeout, retry bound).
type Plan struct {
	Seed         int64        `json:"seed"`
	RetryTimeout float64      `json:"retry_timeout,omitempty"` // virtual seconds; 0 = default
	MaxRetries   int          `json:"max_retries,omitempty"`   // 0 = default
	Stragglers   []Straggler  `json:"stragglers,omitempty"`
	Links        []LinkJitter `json:"links,omitempty"`
	Drops        []Drop       `json:"drops,omitempty"`
	Pauses       []Pause      `json:"pauses,omitempty"`
}

// Parse decodes, validates, and normalizes a JSON plan.
func Parse(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p.Normalize()
	return &p, nil
}

// Load reads and parses a plan file.
func Load(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	p, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("fault: %s: %w", path, err)
	}
	return p, nil
}

// Validate rejects physically meaningless entries.
func (p *Plan) Validate() error {
	for i, s := range p.Stragglers {
		if s.Factor <= 0 {
			return fmt.Errorf("fault: straggler %d: factor %g must be > 0", i, s.Factor)
		}
		if s.Until != 0 && s.Until <= s.From {
			return fmt.Errorf("fault: straggler %d: until %g <= from %g", i, s.Until, s.From)
		}
	}
	for i, l := range p.Links {
		if l.MaxDelay < 0 {
			return fmt.Errorf("fault: link %d: negative max_delay %g", i, l.MaxDelay)
		}
	}
	for i, d := range p.Drops {
		if d.Prob < 0 || d.Prob > 1 {
			return fmt.Errorf("fault: drop %d: prob %g outside [0,1]", i, d.Prob)
		}
	}
	for i, ps := range p.Pauses {
		if ps.Duration < 0 {
			return fmt.Errorf("fault: pause %d: negative duration %g", i, ps.Duration)
		}
	}
	if p.RetryTimeout < 0 {
		return fmt.Errorf("fault: negative retry_timeout %g", p.RetryTimeout)
	}
	if p.MaxRetries < 0 {
		return fmt.Errorf("fault: negative max_retries %d", p.MaxRetries)
	}
	return nil
}

// Normalize fills defaulted protocol parameters in place.
func (p *Plan) Normalize() {
	if p.RetryTimeout == 0 {
		p.RetryTimeout = DefaultRetryTimeout
	}
	if p.MaxRetries == 0 {
		p.MaxRetries = DefaultMaxRetries
	}
}

// matchLink reports whether a (from, to) rule term matches a concrete link.
func matchLink(ruleFrom, ruleTo, from, to int) bool {
	return (ruleFrom == -1 || ruleFrom == from) && (ruleTo == -1 || ruleTo == to)
}

// splitmix64 is the finalizer of the SplitMix64 generator: a bijective
// avalanche mix, the standard way to turn structured integers into
// independent uniform bits.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// rand01 maps the seed and the given identifiers to a uniform [0,1) double.
// Deterministic by construction: no stream state, so concurrent ranks never
// contend or perturb each other's draws.
func (p *Plan) rand01(vals ...int64) float64 {
	h := splitmix64(uint64(p.Seed))
	for _, v := range vals {
		h = splitmix64(h ^ uint64(v))
	}
	return float64(h>>11) / float64(uint64(1)<<53)
}

// ComputeFactor returns the compute-time multiplier for rank at virtual
// time t (the product of all matching straggler windows; 1 = healthy).
func (p *Plan) ComputeFactor(rank int, t float64) float64 {
	f := 1.0
	for _, s := range p.Stragglers {
		if s.Rank != rank {
			continue
		}
		if t < s.From || (s.Until != 0 && t >= s.Until) {
			continue
		}
		f *= s.Factor
	}
	return f
}

// SendDelay returns the extra seeded latency for message seq on from->to
// (the sum over matching jitter rules of a uniform [0, MaxDelay) draw).
func (p *Plan) SendDelay(from, to int, seq int64) float64 {
	var d float64
	for i, l := range p.Links {
		if !matchLink(l.From, l.To, from, to) || l.MaxDelay == 0 {
			continue
		}
		d += l.MaxDelay * p.rand01(1, int64(i), int64(from), int64(to), seq)
	}
	return d
}

// DropAttempt reports whether delivery attempt `attempt` (0 = first try) of
// message seq on from->to is lost.
func (p *Plan) DropAttempt(from, to int, seq int64, attempt int) bool {
	for i, d := range p.Drops {
		if !matchLink(d.From, d.To, from, to) || d.Prob == 0 {
			continue
		}
		if p.rand01(2, int64(i), int64(from), int64(to), seq, int64(attempt)) < d.Prob {
			return true
		}
	}
	return false
}

// PauseEnd reports whether rank is inside a pause window at virtual time t,
// and if so when the window (the latest matching one) ends.
func (p *Plan) PauseEnd(rank int, t float64) (float64, bool) {
	end := t
	hit := false
	for _, ps := range p.Pauses {
		if ps.Rank != rank || ps.Duration == 0 {
			continue
		}
		if t >= ps.At && t < ps.At+ps.Duration && ps.At+ps.Duration > end {
			end = ps.At + ps.Duration
			hit = true
		}
	}
	return end, hit
}

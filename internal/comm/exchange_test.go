package comm

import (
	"testing"
	"time"
)

// TestMismatchedCallsFailEveryRank: ranks that meet at the rendezvous with
// different calls — an exchange against an allreduce, or one exchange
// carrying three fields against one — all fail with one panic that names
// both calls and both ranks, and Run returns, where before they waited
// forever or folded the wrong words.
func TestMismatchedCallsFailEveryRank(t *testing.T) {
	const p = 4
	ring := func(r *Rank) []int { // both ring neighbours, ascending
		a, b := (r.ID+p-1)%p, (r.ID+1)%p
		return []int{min(a, b), max(a, b)}
	}
	cases := []struct {
		name string
		call func(r *Rank, x *Exchange)
		want string
	}{
		{"exchange against allreduce", func(r *Rank, x *Exchange) {
			if r.ID == 2 {
				r.AllreduceScalar(1, OpSum)
				return
			}
			r.Exchange(x, 1)
		}, "comm: rank 2 at an allreduce (1 words), rank 0 at exchange 0 (1 fields)"},
		{"three fields against one", func(r *Rank, x *Exchange) {
			fields := 1
			if r.ID == 3 {
				fields = 3
			}
			r.Exchange(x, fields)
		}, "comm: rank 3 at exchange 0 (3 fields), rank 0 at exchange 0 (1 fields)"},
	}
	for _, c := range cases {
		net := NewNetwork(testMachine(p))
		msgs := make([]string, p)
		done := make(chan struct{})
		go func() {
			net.Run(func(r *Rank) {
				defer func() { msgs[r.ID], _ = recover().(string) }()
				x := r.NewExchange(ring(r), 7, func([][]float64) {})
				for i := range x.Out {
					x.Out[i] = []float64{float64(r.ID)}
				}
				c.call(r, x)
			})
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: Run did not return: a rank stayed parked", c.name)
		}
		for q, m := range msgs {
			if m != c.want {
				t.Errorf("%s: rank %d recovered %q, want %q", c.name, q, m, c.want)
			}
		}
	}
}

package session

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/ns"
	"repro/internal/parrun"
)

// FuzzSubmitConfig: whatever body a client posts, the job service's config
// path — decode, checkServable, Create, Close — never panics, and a body
// checkServable accepts always builds: Create returns a session, not an
// error. A job's solver is built on its runner after the submit has
// returned, where a set-up error could only fail the job, so what set-up
// refuses must be refused first, as a 400. go test runs the seeds; explore
// with go test -run '^$' -fuzz FuzzSubmitConfig ./internal/session.
func FuzzSubmitConfig(f *testing.F) {
	valid := `{"case":"convection","steps":1,"n":3,"nel":2}`
	for _, body := range slices.Concat(refusedSubmits, oneDimensionSubmits, []string{valid}) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeSubmit(bytes.NewReader(body))
		if err != nil || checkServable(req.Config) != nil {
			return
		}
		// The tenant caps admit jobs whose set-up takes seconds and hundreds
		// of megabytes; an iteration builds only small ones.
		if c := req.Config; c.N > 8 || c.Nel > 12 || c.KX > 12 || c.KY > 12 {
			t.Skip("larger than a fuzz iteration builds")
		}
		s, err := Create(req.Config)
		if err != nil || s == nil {
			t.Fatalf("Create(%s) = %v, %v: checkServable accepted it, want a session", body, s, err)
		}
		s.Close()
	})
}

// FuzzResumeCheckpoint: whatever bytes a checkpoint artifact holds, reading
// it (parrun.ReadCheckpoint) and resuming a small channel from it on either
// machine (ranks 0 and 2) ends in an error, or in a session whose next step
// returns, never in a panic. The seeds are a real snapshot of each machine and
// three edits of it that Restore refuses: history past the BDF order, a
// basis longer than the session's L, a basis without all of its images.
// go test runs the seeds; explore with
// go test -run '^$' -fuzz FuzzResumeCheckpoint ./internal/session.
func FuzzResumeCheckpoint(f *testing.F) {
	cfg := Config{Case: "channel", N: 4, KX: 2, KY: 2, ProjectionL: 3}
	edits := []func(st *ns.Checkpoint){
		func(*ns.Checkpoint) {},
		func(st *ns.Checkpoint) {
			for len(st.Hist) < 5 {
				st.Hist = append(st.Hist, st.Hist[0])
			}
		},
		func(st *ns.Checkpoint) {
			for len(st.ProjXs) < cfg.ProjectionL+2 {
				st.ProjXs, st.ProjAxs = append(st.ProjXs, st.ProjXs[0]), append(st.ProjAxs, st.ProjAxs[0])
			}
		},
		func(st *ns.Checkpoint) { st.ProjAxs = st.ProjAxs[1:] },
	}
	for _, ranks := range []int{0, 2} {
		c := cfg
		c.Ranks = ranks
		for _, edit := range edits {
			s, err := Create(c)
			if err != nil {
				f.Fatal(err)
			}
			if _, err := s.StepN(4); err != nil {
				f.Fatal(err)
			}
			ck, err := s.Checkpoint()
			s.Close()
			if err != nil {
				f.Fatal(err)
			}
			for _, rk := range ck.Ranks {
				edit(rk.State)
			}
			var buf bytes.Buffer
			if err := ck.Encode(&buf); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		ck, err := parrun.ReadCheckpoint(bytes.NewReader(raw))
		if err != nil {
			return
		}
		for _, ranks := range []int{0, 2} {
			c := cfg
			c.Ranks = ranks
			s, err := Resume(c, ck)
			if err != nil {
				continue
			}
			s.StepN(1) // an error is an outcome; a panic fails the target
			s.Close()
		}
	})
}

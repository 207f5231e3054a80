package session

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
)

// FuzzSubmitConfig: whatever body a client posts, the job service's config
// path — decode, checkServable, Create, Close — ends in an error or in a
// session, never in a panic. go test runs the seeds; explore with
// go test -run '^$' -fuzz FuzzSubmitConfig ./internal/session.
func FuzzSubmitConfig(f *testing.F) {
	valid := `{"case":"convection","steps":1,"n":3,"nel":2,"workers":1}`
	for _, body := range slices.Concat(refusedSubmits, oneDimensionSubmits, []string{valid}) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SubmitRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil || checkServable(req.Config) != nil {
			return
		}
		// The tenant caps admit jobs whose set-up takes seconds and hundreds
		// of megabytes; an iteration builds only small ones.
		if c := req.Config; c.N > 8 || c.Nel > 12 || c.KX > 12 || c.KY > 12 {
			t.Skip("larger than a fuzz iteration builds")
		}
		s, err := Create(req.Config)
		if (s == nil) == (err == nil) {
			t.Fatalf("Create(%s) = %v, %v: want a session or an error", body, s, err)
		}
		if s != nil {
			s.Close()
		}
	})
}

package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/session"
)

// TestFig3RowDIsTheDefaultShearLayer: Fig. 3's row (d) starts from the case
// table's shear layer and overrides only its size and α, which are the
// case's defaults, so one step of it is bit for bit one step of a bare
// shearlayer submit. cmd/semflow's TestNamedCasesRunAlikeFromEveryDriver
// holds semflow's flag defaults to the same submit.
func TestFig3RowDIsTheDefaultShearLayer(t *testing.T) {
	var cfg session.Config
	if err := json.Unmarshal([]byte(`{"case":"shearlayer","steps":1}`), &cfg); err != nil {
		t.Fatal(err)
	}
	sess, err := session.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.StepN(1); err != nil {
		t.Fatal(err)
	}
	ck, err := sess.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	want := ck.Ranks[0].State

	rows, _ := fig3Rows(true)
	var row fig3Row
	for _, r := range rows {
		if strings.HasPrefix(r.label, "(d)") {
			row = r
		}
	}
	s, err := row.solver()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
	got := s.Checkpoint()
	gotFields := append(got.Fields, got.P)
	for c, f := range append(want.Fields, want.P) {
		g := gotFields[c]
		for i := range f {
			if math.Float64bits(g[i]) != math.Float64bits(f[i]) {
				t.Fatalf("%s, field %d entry %d: %v, a bare submit has %v", row.label, c, i, g[i], f[i])
			}
		}
	}
}

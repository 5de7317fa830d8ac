package sweepapi

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"cameo/internal/runner"
	"cameo/internal/system"
)

// fuzzMaxCells caps the grids the fuzz target builds, so a body sweeping
// many values stays cheap per execution.
const fuzzMaxCells = 64

// requestFields returns the JSON names of Request's fields.
func requestFields() []string {
	rt := reflect.TypeOf(Request{})
	names := make([]string, rt.NumField())
	for i := range names {
		names[i], _, _ = strings.Cut(rt.Field(i).Tag.Get("json"), ",")
	}
	return names
}

// FuzzDecodeRequest feeds arbitrary POST /sweep bodies through
// DecodeRequest and BuildGrid. Neither may panic. A body DecodeRequest
// accepts names only Request's fields (matched case-insensitively, as
// encoding/json matches them) and re-encodes stably. A grid BuildGrid
// accepts has at most its cap of cells, index-aligned jobs, tags and
// specs, valid cell hashes, and no job that validates with more than
// system.MaxCores cores.
func FuzzDecodeRequest(f *testing.F) {
	for _, seed := range []string{
		// Bodies the smoke scripts and the README send.
		`{"org":"cameo","benchmarks":["sphinx3","milc","gcc"],"sweep":"seed","values":[1,2,3,4],"instr":200000,"cores":4}`,
		`{"org":"cameo","benchmarks":["sphinx3","milc","gcc","mcf"],"sweep":"seed","values":[5,6,7,8],"instr":2000000,"cores":4}`,
		`{"org":"cameo","benchmarks":["sphinx3"],"sweep":"seed","values":[1,2],"instr":50000,"cores":4}`,
		`{"org":"cameo","benchmarks":["milc","gcc","mcf"],"sweep":"seed","values":[1,2,3,4],"instr":50000000,"cores":8}`,
		`{"org":"cameo", "benchmarks":["milc","gcc"], "sweep":"scale", "values":[512,1024,2048], "instr":300000, "cores":16, "timeout_ms":600000}`,
		// A misspelled field and a retired one.
		`{"org":"cameo","benchmarks":["milc"],"sede":7}`,
		`{"org":"cameo","benchmarks":["milc"],"shards":4}`,
		// Core counts past system.MaxCores, directly and through a sweep.
		`{"org":"cameo","benchmarks":["milc"],"cores":100000000}`,
		`{"org":"cameo","benchmarks":["milc"],"sweep":"cores","values":[1,1025,18446744073709551615]}`,
		`{}`, `[]`, `null`, ``,
	} {
		f.Add([]byte(seed))
	}
	fields := requestFields()
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		var named map[string]json.RawMessage
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&named); err != nil {
			t.Fatalf("accepted body %q is not a JSON object: %v", body, err)
		}
		for key := range named {
			known := false
			for _, name := range fields {
				known = known || strings.EqualFold(key, name)
			}
			if !known {
				t.Fatalf("accepted body %q names unknown field %q", body, key)
			}
		}

		// Compare re-encodings, not structs: "values":[] decodes to an
		// empty slice that omitempty drops.
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", req, err)
		}
		again, err := DecodeRequest(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded body %s rejected: %v", enc, err)
		}
		if enc2, _ := json.Marshal(again); !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding unstable:\n%s\n%s", enc, enc2)
		}

		g, err := BuildGrid(req, fuzzMaxCells)
		if err != nil {
			return
		}
		n := len(g.Jobs)
		if n == 0 || n > fuzzMaxCells || len(g.Tags) != n || len(g.Cells) != n {
			t.Fatalf("grid of %d jobs, %d tags, %d cells (cap %d)", n, len(g.Tags), len(g.Cells), fuzzMaxCells)
		}
		for _, j := range g.Jobs {
			if h := j.Hash(); !runner.ValidHash(h) {
				t.Fatalf("job %s has invalid hash %q", j.Key(), h)
			}
			cfg := j.Cfg.WithDefaults()
			if cfg.Cores > system.MaxCores && cfg.Validate() == nil {
				t.Fatalf("job %s validates with %d cores (limit %d)", j.Key(), cfg.Cores, system.MaxCores)
			}
		}
	})
}

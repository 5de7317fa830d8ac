package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"cameo/internal/system"
	"cameo/internal/workload"
)

// FuzzDecodeEntry feeds arbitrary bytes to DecodeEntry, the one check on
// cache envelopes read from disk, received in PUT /cache/<hash> or fetched
// from a peer. It must reject or accept them without panicking, and a
// result it accepts must come back deep-equal through EncodeEntry.
func FuzzDecodeEntry(f *testing.F) {
	spec, _ := workload.SpecByName("milc")
	res, err := NewJob(spec, system.Config{Org: system.CAMEO, ScaleDiv: 4096, Cores: 4, InstrPerCore: 40_000}).
		TryRun(context.Background())
	if err != nil {
		f.Fatal(err)
	}
	valid, err := EncodeEntry(res)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := DecodeEntry(valid); err != nil {
		f.Fatalf("a fresh envelope is rejected: %v", err)
	}
	bare, err := json.Marshal(res)
	if err != nil {
		f.Fatal(err)
	}
	flipped := bytes.Clone(valid)
	at := bytes.Index(flipped, []byte(`"Cycles":`))
	if at < 0 {
		f.Fatal("no Cycles field in the payload")
	}
	flipped[at+len(`"Cycles":`)] ^= 0x01 // a digit stays a digit
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(flipped)
	f.Add(bytes.Replace(valid, []byte(entrySchema), []byte("cameo-cache-entry-v0"), 1))
	f.Add([]byte(`{}`))
	f.Add(bare)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeEntry(data)
		if err != nil {
			return
		}
		enc, err := EncodeEntry(got)
		if err != nil {
			t.Fatalf("accepted entry does not re-encode: %v", err)
		}
		again, err := DecodeEntry(enc)
		if err != nil {
			t.Fatalf("re-encoded entry rejected: %v", err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("round trip changed the result:\n%+v\nvs\n%+v", got, again)
		}
	})
}

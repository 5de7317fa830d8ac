package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"cameo/internal/workload"
)

// FuzzReaderRobustness feeds arbitrary bytes to the trace reader: it must
// reject or parse them without panicking, whatever the corruption, and
// every error other than a clean io.EOF must wrap ErrBadFormat.
func FuzzReaderRobustness(f *testing.F) {
	// Seed with a valid trace and a few mutations.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Meta{Benchmark: "x", ScaleDiv: 1, Core: 0, Seed: 1})
	_ = w.Write(workload.Request{Gap: 5, VLine: 100, PC: 4})
	_ = w.Write(workload.Request{Gap: 1, VLine: 101, PC: 4, Write: true})
	_ = w.Flush()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-2])
	f.Add([]byte("CAMT"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("NewReader: %v does not wrap ErrBadFormat", err)
			}
			return
		}
		for i := 0; i < 1000; i++ {
			if _, err := r.Next(); err != nil {
				if err != io.EOF && !errors.Is(err, ErrBadFormat) {
					t.Fatalf("Next: %v is neither io.EOF nor wraps ErrBadFormat", err)
				}
				return
			}
		}
	})
}

// FuzzRoundTrip decodes fuzz bytes into a request sequence, encodes it, and
// demands byte-exact request recovery.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		var reqs []workload.Request
		for i := 0; i+9 < len(data); i += 10 {
			reqs = append(reqs, workload.Request{
				Gap:   uint64(data[i]),
				VLine: uint64(data[i+1])<<16 | uint64(data[i+2])<<8 | uint64(data[i+3]),
				PC:    uint64(data[i+4]) << 2,
				Write: data[i+5]&1 == 1,
			})
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, Meta{Benchmark: "f", ScaleDiv: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reqs {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		rd, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range reqs {
			got, err := rd.Next()
			if err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			if got != want {
				t.Fatalf("record %d: got %+v want %+v", i, got, want)
			}
		}
		if _, err := rd.Next(); err != io.EOF {
			t.Fatalf("trailing read: %v", err)
		}
	})
}

package main

import (
	"bytes"
	"net"
	"strings"
	"testing"
)

// TestRunListenErrors: an unusable listen address — busy port or malformed
// string — exits 1 with one clear diagnostic line, never a panic or a bare
// log.Fatal stack.
func TestRunListenErrors(t *testing.T) {
	// Occupy a port so cameod's bind collides.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	busy := ln.Addr().String()

	cases := []struct {
		name string
		addr string
	}{
		{"busy-port", busy},
		{"malformed", "not-an-address:::"},
		{"bad-port", "127.0.0.1:99999"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			code := func() (code int) {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("run panicked: %v", p)
					}
				}()
				return run([]string{"-addr", tc.addr}, &stderr)
			}()
			if code != 1 {
				t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), "cannot listen on "+tc.addr) {
				t.Fatalf("stderr lacks the listen diagnostic: %q", stderr.String())
			}
		})
	}
}

// TestRunFlagValidation: incoherent flag combinations are usage errors
// (exit 2) with a message naming the missing flag.
func TestRunFlagValidation(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-addr", "127.0.0.1:0", "-coordinator"}, &stderr); code != 2 {
		t.Fatalf("-coordinator without -workers: exit %d, want 2 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-workers") {
		t.Fatalf("stderr does not name the missing flag: %q", stderr.String())
	}

	stderr.Reset()
	if code := run([]string{"-addr", "127.0.0.1:0", "-peers", "http://peer:1"}, &stderr); code != 2 {
		t.Fatalf("-peers without -cachedir: exit %d, want 2 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-cachedir") {
		t.Fatalf("stderr does not name the missing flag: %q", stderr.String())
	}

	stderr.Reset()
	if code := run([]string{"-no-such-flag"}, &stderr); code != 2 {
		t.Fatalf("unknown flag: exit %d, want 2", code)
	}
}

// TestRunCoordinatorBadWorkers: a coordinator with an invalid worker list
// fails with the fleet's diagnostic, exit 1.
func TestRunCoordinatorBadWorkers(t *testing.T) {
	var stderr bytes.Buffer
	code := run([]string{"-addr", "127.0.0.1:0", "-coordinator", "-workers", "worker-sans-scheme:9000"}, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "http(s) base URL") {
		t.Fatalf("stderr lacks the worker-URL diagnostic: %q", stderr.String())
	}
}

func TestSplitList(t *testing.T) {
	got := splitList(" http://a:1 ,, http://b:2,")
	if len(got) != 2 || got[0] != "http://a:1" || got[1] != "http://b:2" {
		t.Fatalf("splitList = %#v", got)
	}
	if splitList("") != nil {
		t.Fatalf("splitList(\"\") = %#v, want nil", splitList(""))
	}
}

// TestRunMembershipFlagValidation: an unparsable -chaos spec is a usage
// error naming the bad rule.
func TestRunMembershipFlagValidation(t *testing.T) {
	var stderr bytes.Buffer
	code := run([]string{"-addr", "127.0.0.1:0", "-chaos", "fleet/dispatch:no-such-kind"}, &stderr)
	if code != 2 {
		t.Fatalf("bad -chaos spec: exit %d, want 2 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "no-such-kind") {
		t.Fatalf("stderr does not name the bad chaos kind: %q", stderr.String())
	}
}

// TestRunCoordinatorRejectsStateFlags: a coordinator keeps nothing on
// disk, so -cachedir with -coordinator is a usage error naming the flag,
// and the retired coordinator flags (its state and the death window) are
// unknown.
func TestRunCoordinatorRejectsStateFlags(t *testing.T) {
	var stderr bytes.Buffer
	code := run([]string{"-addr", "127.0.0.1:0", "-coordinator", "-workers", "http://w:1",
		"-cachedir", t.TempDir()}, &stderr)
	if code != 2 {
		t.Fatalf("-coordinator with -cachedir: exit %d, want 2 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-cachedir") {
		t.Fatalf("stderr does not name -cachedir: %q", stderr.String())
	}

	for _, retired := range [][]string{
		{"-standby", "http://primary:1"},
		{"-resume"},
		{"-vnodes", "64"},
		{"-dead-misses", "3"},
	} {
		stderr.Reset()
		args := append([]string{"-addr", "127.0.0.1:0", "-coordinator", "-workers", "http://w:1"}, retired...)
		if code := run(args, &stderr); code != 2 {
			t.Fatalf("retired flag %s: exit %d, want 2 (stderr: %s)", retired[0], code, stderr.String())
		}
		if !strings.Contains(stderr.String(), "flag provided but not defined: "+retired[0]) {
			t.Fatalf("retired flag %s: stderr lacks the unknown-flag diagnostic: %q", retired[0], stderr.String())
		}
	}
}

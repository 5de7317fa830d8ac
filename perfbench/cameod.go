package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"

	"cameo/internal/sweepapi"
)

// daemon is one running cameod process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{} // closed once the stderr reader saw EOF
	mu     sync.Mutex
	tail   []string // last stderr lines, for error reports
}

var listenLine = regexp.MustCompile(`listening on (\S+)`)

// launch starts cameod on an ephemeral loopback port. It returns once the
// process has logged its listen address; the caller then confirms
// readiness with one GET /readyz — no sleep-based polling anywhere.
func launch(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting cameod: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.exited)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			if d.tail = append(d.tail, line); len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
			if m := listenLine.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		d.url = "http://" + a
		return d, nil
	case <-d.exited:
		d.stop()
		return nil, fmt.Errorf("cameod %s exited before listening: %s", strings.Join(args, " "), d.stderrTail())
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("cameod %s did not listen within 60s", strings.Join(args, " "))
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

// stop asks cameod to drain (SIGTERM), kills it if it has not exited
// within ten seconds, and waits for the process and its stderr reader.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	done := make(chan error, 1)
	go func() {
		<-d.exited
		done <- d.cmd.Wait()
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		return fmt.Errorf("cameod %s ignored SIGTERM: %v", d.url, <-done)
	}
}

// stopAll stops every daemon and reports the first failure.
func stopAll(ds ...*daemon) error {
	var first error
	for _, d := range ds {
		if d == nil {
			continue
		}
		if err := d.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// httpClient keeps connections alive across a closed loop's requests.
var httpClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}

// ready reports whether url answers 200 on /readyz.
func ready(ctx context.Context, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s/readyz answered %d", url, resp.StatusCode)
	}
	return nil
}

// postSweep sends one /sweep request and decodes a 200 reply. A non-200
// reply is returned as its status with a nil response.
func postSweep(ctx context.Context, url string, sr sweepapi.Request) (int, *sweepapi.Response, error) {
	body, err := json.Marshal(sr)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/sweep", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := httpClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, nil
	}
	var out sweepapi.Response
	if err := json.Unmarshal(data, &out); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("decoding sweep reply: %w", err)
	}
	return resp.StatusCode, &out, nil
}

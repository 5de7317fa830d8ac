//go:build unix

package runner

import (
	"fmt"
	"os"
	"syscall"
)

// acquireDirLock takes an exclusive, non-blocking flock on path, creating
// the file if needed. flock dies with the process (or the last duplicated
// descriptor), so a crashed sweep can never wedge the cache directory the
// way a pid file would.
func acquireDirLock(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if err == syscall.EWOULDBLOCK {
			return nil, fmt.Errorf("locked by another sweep")
		}
		return nil, fmt.Errorf("locking: %w", err)
	}
	// Best effort: record who holds it, for humans inspecting the dir.
	f.Truncate(0)
	fmt.Fprintf(f, "%d\n", os.Getpid())
	return f, nil
}

// releaseDirLock drops the flock and closes the file.
func releaseDirLock(f *os.File) error {
	uerr := syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
	cerr := f.Close()
	if uerr != nil {
		return uerr
	}
	return cerr
}

// syncDir fsyncs a directory, making a file newly created in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

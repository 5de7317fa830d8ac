//go:build !unix

package runner

import "os"

// acquireDirLock on platforms without flock degrades to a plain marker
// file: the cache stays usable, without the concurrent-sweep guard.
func acquireDirLock(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
}

func releaseDirLock(f *os.File) error { return f.Close() }

// syncDir is a no-op where directories cannot be fsynced.
func syncDir(string) error { return nil }

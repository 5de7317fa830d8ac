package vm

import "fmt"

// pte is one page-table entry. Zero means the page was never touched,
// onStorage means its contents live on storage, and any other value is
// the resident frame plus one. A page is never resident and on storage at
// once: a major fault reads it back and its entry becomes the new frame.
type pte uint32

const (
	onStorage pte = 1 << 31
	// maxFrames is the largest frame count whose frame+1 stays below the
	// on-storage bit.
	maxFrames = uint64(onStorage) - 1
)

// resident is the entry of a page held in frame f.
func resident(f uint64) pte { return pte(f + 1) }

// frame returns the frame holding the page, if it is resident.
func (e pte) frame() (uint64, bool) { return uint64(e) - 1, e != 0 && e != onStorage }

const (
	leafBits = 9
	leafLen  = 1 << leafBits
	// maxLeaves bounds the directory at 2^30 virtual pages (4 TiB) per
	// process, far above any scaled footprint, so a corrupt address fails
	// loudly instead of growing the directory without limit.
	maxLeaves = 1 << 21
)

// leaf holds the entries of leafLen consecutive virtual pages.
type leaf [leafLen]pte

// pageTable is one process's two-level radix page table: a directory,
// indexed by a virtual page's high bits, of fixed leaves indexed by its
// low bits. A leaf is allocated when a page it covers is first touched.
type pageTable struct {
	dir []*leaf
}

// lookup returns vpage's entry; pages whose leaf was never allocated, and
// pages beyond the directory's bound, were never touched.
func (t *pageTable) lookup(vpage uint64) pte {
	if i := vpage >> leafBits; i < uint64(len(t.dir)) {
		if l := t.dir[i]; l != nil {
			return l[vpage&(leafLen-1)]
		}
	}
	return 0
}

// entry returns vpage's entry for update, allocating its leaf, and growing
// the directory to reach it, on first touch. Leaves never move, so the
// pointer stays valid while other entries are written. A page beyond the
// directory's bound is a bookkeeping bug and panics.
func (t *pageTable) entry(vpage uint64) *pte {
	i := vpage >> leafBits
	if i >= maxLeaves {
		panic(fmt.Sprintf("vm: virtual page %#x beyond the page table's bound of %#x pages", vpage, uint64(maxLeaves)*leafLen))
	}
	if n := int(i) + 1; n > len(t.dir) {
		t.dir = append(t.dir, make([]*leaf, n-len(t.dir))...)
	}
	l := t.dir[i]
	if l == nil {
		l = new(leaf)
		t.dir[i] = l
	}
	return &l[vpage&(leafLen-1)]
}

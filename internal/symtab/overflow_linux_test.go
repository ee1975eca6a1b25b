package symtab

import (
	"math"
	"strings"
	"syscall"
	"testing"
)

// TestOverlayPastFourGiBPanics: an intern that would take the overlay's
// text past 4 GiB, where its u32 offsets would wrap, panics with a
// message and adds nothing. The arena's blob is pointed at a reservation
// of address space one name short of 4 GiB, so no memory is committed:
// only the page the next name would land in is writable, and a missing
// check would write it in place and wrap an offset, not allocate.
func TestOverlayPastFourGiBPanics(t *testing.T) {
	const size, page = 1<<32 + 1<<16, 1 << 16
	reserved, err := syscall.Mmap(-1, 0, size, syscall.PROT_NONE, syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		t.Skipf("cannot reserve 4 GiB of address space: %v", err)
	}
	defer syscall.Munmap(reserved)
	if err := syscall.Mprotect(reserved[1<<32-page:], syscall.PROT_READ|syscall.PROT_WRITE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	for name, intern := range map[string]func(*Table, string){
		"Intern":    func(tab *Table, name string) { tab.Intern(name) },
		"InternAll": func(tab *Table, name string) { tab.InternAll([]string{name}) },
	} {
		tab := NewTable()
		tab.overlay.b.blob = reserved[:math.MaxUint32-2]
		tab.overlay.b.offs = []uint32{0}
		func() {
			defer func() {
				if err, _ := recover().(error); err == nil || !strings.Contains(err.Error(), "4 GiB") {
					t.Errorf("%s past 4 GiB: recovered %v, want a 4 GiB error", name, err)
				}
			}()
			intern(tab, "abc")
		}()
		if _, ok := tab.Lookup("abc"); ok || tab.Len() != 1 || tab.overlay.b.n != 0 || len(tab.overlay.b.offs) != 1 {
			t.Errorf("%s: a refused intern left Len %d, %d names, %d offsets", name, tab.Len(), tab.overlay.b.n, len(tab.overlay.b.offs))
		}
	}
}

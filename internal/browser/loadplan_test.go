package browser

import (
	"runtime"
	"testing"
	"time"

	"eabrowse/internal/rrc"
	"eabrowse/internal/webpage"
)

// TestLoadedPageIsCollected: the plan lives on its page, so nothing outside
// the page keeps it reachable, and a page dropped after loading is
// garbage-collected together with its plan.
func TestLoadedPageIsCollected(t *testing.T) {
	collected := make(chan struct{})
	func() {
		page := testPage(t)
		if _, err := LoadFresh(page, ModeEnergyAware, rrc.DefaultConfig(), nil); err != nil {
			t.Fatalf("LoadFresh: %v", err)
		}
		runtime.SetFinalizer(page, func(*webpage.Page) { close(collected) })
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a loaded page stayed reachable after its last reference was dropped")
}

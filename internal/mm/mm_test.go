package mm

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// TestSnapshotRoundTrip sets every Stats counter to a distinct value and
// checks that Snapshot carries each one over under the same name, so a
// counter added to Stats but not to Snapshot fails here.
func TestSnapshotRoundTrip(t *testing.T) {
	var s Stats
	sv := reflect.ValueOf(&s).Elem()
	for i := 0; i < sv.NumField(); i++ {
		sv.Field(i).Addr().Interface().(*atomic.Uint64).Store(uint64(100 + i))
	}
	snap := reflect.ValueOf(s.Snapshot())
	if snap.NumField() != sv.NumField() {
		t.Errorf("Snapshot has %d fields, Stats has %d", snap.NumField(), sv.NumField())
	}
	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
		f := snap.FieldByName(name)
		if !f.IsValid() {
			t.Errorf("Snapshot drops %s", name)
			continue
		}
		if got := f.Uint(); got != uint64(100+i) {
			t.Errorf("Snapshot.%s = %d, want %d", name, got, 100+i)
		}
	}
}

// TestKernelClockExact checks that every bracketed call is charged in
// full: KernelNanos covers at least the time spent inside each bracket.
func TestKernelClockExact(t *testing.T) {
	var s Stats
	const calls, nap = 4, time.Millisecond
	for i := 0; i < calls; i++ {
		t0 := s.EnterKernel()
		time.Sleep(nap)
		s.ExitKernel(t0)
	}
	if got := time.Duration(s.KernelNanos.Load()); got < calls*nap {
		t.Fatalf("KernelNanos = %v after %d brackets of %v", got, calls, nap)
	}
}

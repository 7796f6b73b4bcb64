package ecc

import (
	"reflect"
	"sync"
	"testing"
)

// sharedCodes pairs each shared accessor with the constructor behind it.
var sharedCodes = []struct {
	name  string
	get   func() *Code
	build func() *Code
}{
	{"steane", Steane, newSteane},
	{"bacon-shor", BaconShor, newBaconShor},
}

func TestSharedCodesAreSingletons(t *testing.T) {
	for _, sc := range sharedCodes {
		if sc.get() != sc.get() {
			t.Errorf("%s: two calls returned different codes", sc.name)
		}
	}
	if cs := Codes(); cs[0] != Steane() || cs[1] != BaconShor() {
		t.Error("Codes does not hand out the shared codes")
	}
}

// TestSharedCodesConcurrentFirstCall races 32 goroutines on each accessor.
// An earlier test may already have built the shared codes, so each
// constructor is also raced behind a fresh once, whose first call is
// always the one under test.
func TestSharedCodesConcurrentFirstCall(t *testing.T) {
	for _, sc := range sharedCodes {
		for _, get := range []func() *Code{sc.get, sync.OnceValue(sc.build)} {
			got := make([]*Code, 32)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					got[i] = get()
				}()
			}
			close(start)
			wg.Wait()
			for i, c := range got {
				if c == nil || c != got[0] {
					t.Fatalf("%s: goroutine %d got %p, goroutine 0 got %p", sc.name, i, c, got[0])
				}
			}
		}
	}
}

// TestSharedCodesMatchFreshBuild checks that the shared value is still
// exactly what its constructor builds: nothing has written to it.
func TestSharedCodesMatchFreshBuild(t *testing.T) {
	for _, sc := range sharedCodes {
		got, want := sc.get(), sc.build()
		for _, f := range []struct {
			field     string
			got, want any
		}{
			{"Name", got.Name, want.Name},
			{"Short", got.Short, want.Short},
			{"N, K, D", [3]int{got.N, got.K, got.D}, [3]int{want.N, want.K, want.D}},
			{"HX", got.HX, want.HX},
			{"HZ", got.HZ, want.HZ},
			{"LX", got.LX, want.LX},
			{"LZ", got.LZ, want.LZ},
			{"profile", got.profile, want.profile},
			{"decodeX", got.decodeX, want.decodeX},
			{"decodeZ", got.decodeZ, want.decodeZ},
			{"bitX", got.bitX, want.bitX},
			{"bitZ", got.bitZ, want.bitZ},
		} {
			if !reflect.DeepEqual(f.got, f.want) {
				t.Errorf("%s: shared %s differs from a fresh build", sc.name, f.field)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: shared code differs from a fresh build", sc.name)
		}
	}
}

package server

import (
	"fmt"
	"testing"

	"repro/facade"
)

// TestTierWatermarkVerdictsAgree: the daemon's request validation and the
// facade (through offheap.EnableTiering, the one place the watermark rule
// lives) accept and reject the same (high, low) pairs.
func TestTierWatermarkVerdictsAgree(t *testing.T) {
	src := `
class Rec { long v; Rec(long v) { this.v = v; } }
class Main { static void main() { Rec r = new Rec(7L); Sys.println(r.v); } }
`
	sources := map[string]string{"w.fj": src}
	p, err := facade.Compile(sources)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := facade.Transform(p, facade.TransformOptions{DataClasses: []string{"Rec"}})
	if err != nil {
		t.Fatal(err)
	}
	pairs := []struct{ high, low int }{
		{0, 0}, {0, 3}, {-1, 0}, {4, -1}, {1, 0}, {4, 0}, {4, 2}, {4, 4}, {4, 5}, {2, 3},
	}
	for _, pr := range pairs {
		t.Run(fmt.Sprintf("high=%d,low=%d", pr.high, pr.low), func(t *testing.T) {
			req := SubmitRequest{Schema: Schema, Sources: sources, Transform: true,
				TierHighPages: pr.high, TierLowPages: pr.low}
			verr := req.Validate()
			res, ferr := facade.Run(p2, facade.WithHeapSize(4<<20), facade.WithTiering(t.TempDir(), pr.high, pr.low))
			if ferr == nil {
				res.Close()
			}
			if (verr == nil) != (ferr == nil) {
				t.Fatalf("verdicts differ: Validate: %v, facade: %v", verr, ferr)
			}
		})
	}
}

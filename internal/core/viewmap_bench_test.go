package core

import (
	"fmt"
	"testing"

	"viewmap/internal/geo"
)

// BenchmarkViewmapBuild measures full construction (admission, linking,
// CSR mirroring) for the Fig. 12 arena shape. Linking runs through the
// one linker (IncrementalBuilder), so this also prices it. Allocations
// are reported so a per-pair map or slice regression on the hot path
// is immediately visible.
func BenchmarkViewmapBuild(b *testing.B) {
	for _, n := range []int{150, 600} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			area := geo.NewRect(geo.Pt(0, 0), geo.Pt(4000, 4000))
			profiles, err := SynthesizeLegitimate(SynthConfig{N: n, Area: area, Seed: 7})
			if err != nil {
				b.Fatal(err)
			}
			MarkTrustedNearest(profiles, geo.Pt(600, 600))
			cfg := BuildConfig{Site: geo.RectAround(geo.Pt(2600, 2600), 200), Minute: 0}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Build(profiles, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

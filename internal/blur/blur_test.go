package blur

import (
	"bytes"
	"image"
	"testing"
)

// standardPlate returns a plate rectangle with a realistic dashcam
// footprint: 96x24 px, aspect ratio 4:1.
func standardPlate(x, y int) Plate {
	return Plate{Rect: image.Rect(x, y, x+96, y+24)}
}

func TestSynthesizeValidation(t *testing.T) {
	if _, err := Synthesize(0, 10, nil, 1); err == nil {
		t.Error("zero width should fail")
	}
	if _, err := Synthesize(10, -1, nil, 1); err == nil {
		t.Error("negative height should fail")
	}
}

func TestSynthesizeRendersPlate(t *testing.T) {
	p := standardPlate(100, 100)
	img, err := Synthesize(640, 360, []Plate{p}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if MaxLuminance(img, p.Rect) < 200 {
		t.Error("plate should render bright")
	}
	// Background stays below the detection threshold.
	bg := image.Rect(0, 0, 50, 50)
	if MaxLuminance(img, bg) >= DefaultParams().Threshold {
		t.Error("background should stay below threshold")
	}
}

func TestLocalizeFindsPlate(t *testing.T) {
	p := standardPlate(200, 150)
	img, err := Synthesize(640, 360, []Plate{p}, 3)
	if err != nil {
		t.Fatal(err)
	}
	regions := Localize(img, Params{})
	if len(regions) != 1 {
		t.Fatalf("found %d regions, want 1", len(regions))
	}
	got := regions[0].Rect
	if !got.Overlaps(p.Rect) {
		t.Errorf("detected region %v does not overlap plate %v", got, p.Rect)
	}
	inter := got.Intersect(p.Rect)
	cover := float64(inter.Dx()*inter.Dy()) / float64(p.Rect.Dx()*p.Rect.Dy())
	if cover < 0.9 {
		t.Errorf("detected region covers only %.0f%% of the plate", cover*100)
	}
}

func TestLocalizeMultiplePlates(t *testing.T) {
	plates := []Plate{standardPlate(50, 50), standardPlate(400, 250), standardPlate(200, 300)}
	img, err := Synthesize(640, 360, plates, 5)
	if err != nil {
		t.Fatal(err)
	}
	regions := Localize(img, Params{})
	if len(regions) != 3 {
		t.Fatalf("found %d regions, want 3", len(regions))
	}
}

func TestLocalizeRejectsWrongAspect(t *testing.T) {
	// A bright square (aspect 1:1) is not a plate.
	square := Plate{Rect: image.Rect(100, 100, 160, 160)}
	img, err := Synthesize(640, 360, []Plate{square}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if regions := Localize(img, Params{}); len(regions) != 0 {
		t.Errorf("square region should be rejected, got %d regions", len(regions))
	}
}

func TestLocalizeRejectsTinyAndHuge(t *testing.T) {
	tiny := Plate{Rect: image.Rect(100, 100, 130, 110)} // 300 px² below MinArea after glyph gaps
	img, err := Synthesize(640, 360, []Plate{tiny}, 11)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.MinArea = 500
	if regions := Localize(img, p); len(regions) != 0 {
		t.Errorf("tiny region should be rejected, got %d", len(regions))
	}
	huge := Plate{Rect: image.Rect(0, 100, 639, 250)}
	img2, err := Synthesize(640, 360, []Plate{huge}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if regions := Localize(img2, Params{}); len(regions) != 0 {
		t.Errorf("huge region should be rejected, got %d", len(regions))
	}
}

func TestLocalizeEmptyImage(t *testing.T) {
	img := image.NewGray(image.Rect(0, 0, 0, 0))
	if regions := Localize(img, Params{}); regions != nil {
		t.Error("empty image should yield nil")
	}
}

func TestBoxBlurDestroysContrast(t *testing.T) {
	p := standardPlate(200, 150)
	img, err := Synthesize(640, 360, []Plate{p}, 13)
	if err != nil {
		t.Fatal(err)
	}
	// Measure glyph contrast in the plate interior, away from the plate
	// edge so the dark car body bleeding in under the kernel does not
	// dominate the reading.
	inner := p.Rect.Inset(10)
	before := Contrast(img, inner)
	BoxBlur(img, p.Rect.Inset(-4), 8)
	after := Contrast(img, inner)
	if after >= before {
		t.Errorf("blur should reduce glyph contrast: before %d, after %d", before, after)
	}
}

func TestBoxBlurNoopCases(t *testing.T) {
	img := image.NewGray(image.Rect(0, 0, 10, 10))
	BoxBlur(img, image.Rect(20, 20, 30, 30), 3) // outside the frame
	BoxBlur(img, image.Rect(0, 0, 5, 5), 0)     // zero radius
}

func TestBoxBlurPreservesMeanApproximately(t *testing.T) {
	img, err := Synthesize(64, 64, nil, 17)
	if err != nil {
		t.Fatal(err)
	}
	var sumBefore int
	for i := range img.Pix {
		sumBefore += int(img.Pix[i])
	}
	BoxBlur(img, img.Rect, 4)
	var sumAfter int
	for i := range img.Pix {
		sumAfter += int(img.Pix[i])
	}
	meanBefore := float64(sumBefore) / float64(len(img.Pix))
	meanAfter := float64(sumAfter) / float64(len(img.Pix))
	if diff := meanAfter - meanBefore; diff > 3 || diff < -3 {
		t.Errorf("box blur should roughly preserve mean: %v vs %v", meanBefore, meanAfter)
	}
}

func TestProcessBlursDetectedPlates(t *testing.T) {
	p := standardPlate(300, 200)
	img, err := Synthesize(640, 360, []Plate{p}, 19)
	if err != nil {
		t.Fatal(err)
	}
	regions := Process(img, Params{})
	if len(regions) != 1 {
		t.Fatalf("Process blurred %d regions, want 1", len(regions))
	}
	// After processing, the glyph stripes are unreadable: interior
	// contrast collapses well below the synthetic glyph contrast (25).
	// Inset past the blur radius so car-body bleed at the plate edge
	// does not dominate the reading.
	if c := Contrast(img, p.Rect.Inset(9)); c > 20 {
		t.Errorf("plate interior contrast after blur = %d, want < 20", c)
	}
}

func TestPipelineStepAndProfile(t *testing.T) {
	pl, err := NewPipeline(320, 180, 4, []Plate{standardPlate(100, 80)}, Params{})
	if err != nil {
		t.Fatal(err)
	}
	n, st := pl.Step()
	if n != 1 {
		t.Errorf("Step blurred %d plates, want 1", n)
	}
	if st.BlurTime <= 0 {
		t.Error("blur time should be positive")
	}
	mean, err := pl.Profile(5)
	if err != nil {
		t.Fatal(err)
	}
	if mean.FPS <= 0 {
		t.Error("profile FPS should be positive")
	}
	if _, err := pl.Profile(0); err == nil {
		t.Error("Profile(0) should fail")
	}
}

func TestNewPipelineValidation(t *testing.T) {
	if _, err := NewPipeline(320, 180, 0, nil, Params{}); err == nil {
		t.Error("zero feed frames should fail")
	}
	if _, err := NewPipeline(0, 180, 1, nil, Params{}); err == nil {
		t.Error("invalid frame size should fail")
	}
}

func TestPlatformScale(t *testing.T) {
	host := StageTimes{BlurTime: 10e6, IOTime: 10e6} // 10ms+10ms => 50 fps
	slow := Platform{Name: "slow", SpeedFactor: 2}.Scale(host)
	if slow.BlurTime != 20e6 || slow.IOTime != 20e6 {
		t.Errorf("scaled times wrong: %+v", slow)
	}
	if slow.FPS < 24 || slow.FPS > 26 {
		t.Errorf("scaled FPS = %v, want 25", slow.FPS)
	}
	if len(Table1Platforms()) != 3 {
		t.Error("Table 1 has three platform rows")
	}
}

func TestStageTimesString(t *testing.T) {
	s := StageTimes{BlurTime: 10e6, IOTime: 20e6, FPS: 33.3}
	if got := s.String(); got == "" {
		t.Error("String should be non-empty")
	}
}

func BenchmarkLocalize720p(b *testing.B) {
	img, err := Synthesize(1280, 720, []Plate{standardPlate(500, 400)}, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Localize(img, Params{})
	}
}

func BenchmarkProcess720p(b *testing.B) {
	src, err := Synthesize(1280, 720, []Plate{standardPlate(500, 400)}, 1)
	if err != nil {
		b.Fatal(err)
	}
	work := image.NewGray(src.Rect)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work.Pix, src.Pix)
		Process(work, Params{})
	}
}

// TestProcessDeterministicAdjacentPlates blurs two plates 4 px apart,
// closer than the blur radius, so each blur window reads pixels the
// other blur writes. Process must blur them in raster order every
// time, so one frame always yields the same bytes.
func TestProcessDeterministicAdjacentPlates(t *testing.T) {
	src, err := Synthesize(160, 90, nil, 21)
	if err != nil {
		t.Fatal(err)
	}
	left, right := image.Rect(20, 30, 70, 46), image.Rect(74, 30, 124, 46)
	for _, r := range []image.Rectangle{left, right} {
		for y := r.Min.Y; y < r.Max.Y; y++ {
			for x := r.Min.X; x < r.Max.X; x++ {
				src.Pix[src.PixOffset(x, y)] = 235
			}
		}
	}
	if got := Localize(src, Params{}); len(got) != 2 || got[0].Rect != left || got[1].Rect != right {
		t.Fatalf("Localize = %v, want [%v %v] in raster order", got, left, right)
	}
	want := image.NewGray(src.Rect)
	copy(want.Pix, src.Pix)
	for _, r := range []image.Rectangle{left, right} {
		BoxBlur(want, r, DefaultParams().BlurRadius)
	}
	work := image.NewGray(src.Rect)
	for run := 0; run < 200; run++ {
		copy(work.Pix, src.Pix)
		Process(work, Params{})
		if !bytes.Equal(work.Pix, want.Pix) {
			t.Fatalf("run %d: Process output differs from raster-order blurring", run)
		}
	}
}

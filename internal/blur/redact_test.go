package blur

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"image"
	"testing"
)

func TestRedactChunksBlursPlateFrames(t *testing.T) {
	const w, h = 160, 90
	plate := image.Rect(55, 40, 105, 56) // 50x16: plate-like area and aspect
	cam := &CameraSource{W: w, H: h, Plates: []Plate{{Rect: plate}}, Seed: 7}
	chunks := [][]byte{
		cam.SecondChunk(0, 1),
		cam.SecondChunk(0, 2),
		[]byte("opaque non-frame payload"), // passes through untouched
	}
	orig := make([][]byte, len(chunks))
	for i, c := range chunks {
		orig[i] = append([]byte(nil), c...)
	}

	out, frames, regions, err := RedactChunks(chunks, w, h, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if frames != 2 {
		t.Fatalf("redacted frames = %d, want 2", frames)
	}
	if regions < 2 {
		t.Fatalf("blurred regions = %d, want at least one per frame", regions)
	}
	// Inputs are untouched (the stored evidence copy must stay
	// bit-exact for later cascade re-verification).
	for i := range chunks {
		if !bytes.Equal(chunks[i], orig[i]) {
			t.Fatalf("input chunk %d was modified", i)
		}
	}
	if !bytes.Equal(out[2], orig[2]) {
		t.Fatal("non-frame chunk must pass through verbatim")
	}
	// The released frames destroyed glyph contrast. Measure the plate
	// interior, inset past the blur radius, so car-body bleed at the
	// plate edge does not dominate the reading (as in the blur tests).
	inner := plate.Inset(7)
	for i := 0; i < 2; i++ {
		before := &image.Gray{Pix: orig[i], Stride: w, Rect: image.Rect(0, 0, w, h)}
		after := &image.Gray{Pix: out[i], Stride: w, Rect: image.Rect(0, 0, w, h)}
		if c := Contrast(before, inner); c < 15 {
			t.Fatalf("frame %d: original glyph contrast %d, expected a readable plate", i, c)
		}
		if c := Contrast(after, inner); c >= 15 {
			t.Fatalf("frame %d: redacted glyph contrast still %d", i, c)
		}
	}
}

func TestRedactChunksValidation(t *testing.T) {
	if _, _, _, err := RedactChunks(nil, 0, 10, Params{}); err == nil {
		t.Fatal("zero width must be rejected")
	}
	out, frames, regions, err := RedactChunks(nil, 10, 10, Params{})
	if err != nil || len(out) != 0 || frames != 0 || regions != 0 {
		t.Fatalf("empty input: out=%v frames=%d regions=%d err=%v", out, frames, regions, err)
	}
}

// cameraVideo renders the 60-frame 160x90 single-plate video shape the
// evidence flow releases.
func cameraVideo() [][]byte {
	cam := &CameraSource{W: 160, H: 90, Plates: []Plate{{Rect: image.Rect(55, 40, 105, 56)}}, Seed: 7}
	chunks := make([][]byte, 60)
	for i := range chunks {
		chunks[i] = cam.SecondChunk(0, i+1)
	}
	return chunks
}

// TestRedactChunksPinnedBytes pins the released bytes of a
// single-plate video: the digest was taken from the per-pixel
// GrayAt/map-based localizer this one replaced, so redaction output
// must not move when the localizer is optimised.
func TestRedactChunksPinnedBytes(t *testing.T) {
	out, frames, regions, err := RedactChunks(cameraVideo(), 160, 90, Params{})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, c := range out {
		h.Write(c)
	}
	const want = "bb518cada055d4ff9e9e6df251964967c1c88abfc97aa3d98131f99452181ded"
	if got := hex.EncodeToString(h.Sum(nil)); got != want || frames != 60 || regions != 60 {
		t.Fatalf("release digest %s over %d frames / %d regions, want %s over 60 / 60", got, frames, regions, want)
	}
}

func BenchmarkRedactChunks(b *testing.B) {
	chunks := cameraVideo()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := RedactChunks(chunks, 160, 90, Params{}); err != nil {
			b.Fatal(err)
		}
	}
}

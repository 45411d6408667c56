package blur

import (
	"fmt"
	"image"
)

// This file adapts the frame-level blurring pipeline to the evidence
// subsystem: a solicited video is released to an investigator only
// after plate redaction runs over its stored copy (Section 5.2.3 pairs
// solicitation with the privacy protections of Section 5.1). The
// synthetic videos of this reproduction carry one luminance frame per
// recorded second, so redaction maps each second's chunk to a frame,
// localizes plates, and blurs them.

// RedactChunks runs plate redaction over a stored video's per-second
// chunks. Every chunk whose length matches a w x h luminance frame is
// interpreted as one, plates are localized and blurred, and the
// redacted pixels replace the chunk in the output; chunks of any other
// length (non-frame payloads) are copied verbatim. The inputs are
// never modified — the stored evidence copy stays bit-exact for
// cascade re-verification — and the function reports how many frames
// were redacted and how many plate regions were blurred in total.
func RedactChunks(chunks [][]byte, w, h int, p Params) (out [][]byte, frames, regions int, err error) {
	if w <= 0 || h <= 0 {
		return nil, 0, 0, fmt.Errorf("blur: invalid frame size %dx%d", w, h)
	}
	p = p.withDefaults()
	var scratch components
	out = make([][]byte, len(chunks))
	for i, c := range chunks {
		cp := make([]byte, len(c))
		copy(cp, c)
		out[i] = cp
		if len(c) != w*h {
			continue
		}
		img := &image.Gray{Pix: cp, Stride: w, Rect: image.Rect(0, 0, w, h)}
		frames++
		regions += len(scratch.process(img, p))
	}
	return out, frames, regions, nil
}

// CameraSource produces deterministic dashcam-like luminance frames —
// one per recorded second — sized so each frame is exactly one video
// chunk. It satisfies the vehicle recorder's chunk-source hook, giving
// simulations and tests videos whose released copies exercise real
// plate localization instead of pseudorandom noise.
type CameraSource struct {
	// W, H are the frame dimensions; the per-second chunk is W*H bytes.
	W, H int
	// Plates are drawn into every frame at fixed positions, as a car
	// ahead would appear in a following dashcam.
	Plates []Plate
	// Seed keys the frame texture so distinct vehicles record distinct
	// (and reproducible) streams.
	Seed uint64
}

// SecondChunk renders the frame for second i (1-based) of the segment
// starting at startUnix and returns its pixels as the chunk.
func (c *CameraSource) SecondChunk(startUnix int64, i int) []byte {
	seed := c.Seed ^ uint64(startUnix)<<20 ^ uint64(i)
	img, err := Synthesize(c.W, c.H, c.Plates, seed)
	if err != nil {
		// Synthesize fails only for non-positive dimensions, which the
		// recorder rejects far earlier; keep the hot path error-free.
		panic(err)
	}
	return img.Pix
}

// Package blur implements the realtime license-plate blurring stage of
// a ViewMap-enabled dashcam (Section 6.2.1). It substitutes a pure-Go
// image pipeline for the paper's OpenCV implementation while keeping
// the same three stages whose latencies Table 1 reports:
//
//  1. I/O in — acquire the frame from the camera module,
//  2. Blur — localize plate-like regions and blur them,
//  3. I/O out — write the processed frame to the video file.
//
// Plate localization follows the classical recipe the paper cites:
// threshold the luminance image, extract connected components, and keep
// components whose area and aspect ratio match a license plate
// (parameters "tailored for South Korean license plates": wide plates
// around a 4.5:1 ratio and standard plates around 2:1).
package blur

import (
	"fmt"
	"image"
	"image/color"
)

// Gray is a luminance frame. We alias the stdlib type so callers can
// construct frames with standard tooling.
type Gray = image.Gray

// Region is a detected plate bounding box.
type Region struct {
	Rect image.Rectangle
}

// Params tune the plate detector. Zero values select defaults.
type Params struct {
	// Threshold is the luminance cut separating plate background from
	// surroundings. Plates are retroreflective and render bright.
	Threshold uint8
	// MinArea and MaxArea bound the component pixel count.
	MinArea, MaxArea int
	// MinAspect and MaxAspect bound width/height of the bounding box.
	MinAspect, MaxAspect float64
	// BlurRadius is the box-blur radius applied to detected regions.
	BlurRadius int
}

// DefaultParams returns detector constants tuned for the synthetic
// 1280x720 frames produced by Synthesize, approximating plates seen at
// dashcam distances.
func DefaultParams() Params {
	return Params{
		Threshold:  200,
		MinArea:    300,
		MaxArea:    40000,
		MinAspect:  1.8,
		MaxAspect:  6.0,
		BlurRadius: 6,
	}
}

func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.Threshold == 0 {
		p.Threshold = d.Threshold
	}
	if p.MinArea == 0 {
		p.MinArea = d.MinArea
	}
	if p.MaxArea == 0 {
		p.MaxArea = d.MaxArea
	}
	if p.MinAspect == 0 {
		p.MinAspect = d.MinAspect
	}
	if p.MaxAspect == 0 {
		p.MaxAspect = d.MaxAspect
	}
	if p.BlurRadius == 0 {
		p.BlurRadius = d.BlurRadius
	}
	return p
}

// Localize finds plate-like regions: bright connected components whose
// bounding boxes have plate-like area and aspect ratio. Regions come
// out in raster order of each component's first pixel.
func Localize(img *Gray, p Params) []Region {
	var c components
	return c.localize(img, p.withDefaults())
}

// components is the scratch state of one connected-component pass,
// kept so that a video's frames reuse one label buffer.
type components struct {
	// labels holds a provisional label for every bright pixel. Entries
	// of dark pixels are stale and never read: a label is read only
	// where the pixel to the left or above is bright.
	labels []int32
	// parent is the union-find forest over provisional labels. Each
	// root is its set's smallest label, which is the label of the
	// component's first pixel in raster order.
	parent []int32
	// boxes holds each provisional label's bounding box and area.
	boxes []box
}

// box is a bounding box with its pixel count.
type box struct {
	minX, minY, maxX, maxY, area int
}

func (c *components) find(x int32) int32 {
	for c.parent[x] != x {
		c.parent[x] = c.parent[c.parent[x]]
		x = c.parent[x]
	}
	return x
}

// union links two sets under the smaller root.
func (c *components) union(a, b int32) {
	ra, rb := c.find(a), c.find(b)
	switch {
	case ra < rb:
		c.parent[rb] = ra
	case rb < ra:
		c.parent[ra] = rb
	}
}

// localize labels img's bright pixels in one raster pass (union-find,
// 4-connectivity), then folds each provisional label's box into its
// root's and returns the plate-like components; p must already carry
// its defaults.
func (c *components) localize(img *Gray, p Params) []Region {
	w := img.Rect.Dx()
	h := img.Rect.Dy()
	if w == 0 || h == 0 {
		return nil
	}
	if cap(c.labels) < w*h {
		c.labels = make([]int32, w*h)
	}
	labels := c.labels[:w*h]
	c.parent, c.boxes = c.parent[:0], c.boxes[:0]
	thr := p.Threshold
	var prev []uint8
	for y := 0; y < h; y++ {
		row := img.Pix[y*img.Stride : y*img.Stride+w]
		lrow := labels[y*w : (y+1)*w]
		var lprev []int32
		if y > 0 {
			lprev = labels[(y-1)*w : y*w]
		}
		for x, v := range row {
			if v < thr {
				continue
			}
			var l int32
			left := x > 0 && row[x-1] >= thr
			up := y > 0 && prev[x] >= thr
			switch {
			case left && up:
				l = lrow[x-1]
				c.union(l, lprev[x])
			case left:
				l = lrow[x-1]
			case up:
				l = lprev[x]
			default:
				l = int32(len(c.parent))
				c.parent = append(c.parent, l)
				c.boxes = append(c.boxes, box{minX: x, minY: y, maxX: x, maxY: y})
			}
			lrow[x] = l
			b := &c.boxes[l]
			if x < b.minX {
				b.minX = x
			}
			if x > b.maxX {
				b.maxX = x
			}
			b.maxY = y
			b.area++
		}
		prev = row
	}
	// Fold each label's box into its root's.
	for l := range c.parent {
		r := c.find(int32(l))
		if r == int32(l) {
			continue
		}
		b, rb := c.boxes[l], &c.boxes[r]
		rb.minX = min(rb.minX, b.minX)
		rb.minY = min(rb.minY, b.minY)
		rb.maxX = max(rb.maxX, b.maxX)
		rb.maxY = max(rb.maxY, b.maxY)
		rb.area += b.area
	}
	var out []Region
	for l, b := range c.boxes {
		if c.parent[l] != int32(l) {
			continue
		}
		bw := b.maxX - b.minX + 1
		bh := b.maxY - b.minY + 1
		if b.area < p.MinArea || b.area > p.MaxArea {
			continue
		}
		aspect := float64(bw) / float64(bh)
		if aspect < p.MinAspect || aspect > p.MaxAspect {
			continue
		}
		// Plates are solid: the component should fill most of its box.
		if fill := float64(b.area) / float64(bw*bh); fill < 0.5 {
			continue
		}
		out = append(out, Region{Rect: image.Rect(
			img.Rect.Min.X+b.minX, img.Rect.Min.Y+b.minY,
			img.Rect.Min.X+b.maxX+1, img.Rect.Min.Y+b.maxY+1)})
	}
	return out
}

// BoxBlur blurs the given region of img in place with a square kernel
// of the given radius, using a summed-area table over the padded region
// so the cost is independent of the radius.
func BoxBlur(img *Gray, region image.Rectangle, radius int) {
	r := region.Intersect(img.Rect)
	if r.Empty() || radius <= 0 {
		return
	}
	// Integral image over the region inflated by the radius (clamped to
	// the frame) so border pixels average real neighbors.
	pad := image.Rect(r.Min.X-radius, r.Min.Y-radius, r.Max.X+radius, r.Max.Y+radius).Intersect(img.Rect)
	pw := pad.Dx()
	ph := pad.Dy()
	integral := make([]uint64, (pw+1)*(ph+1))
	for y := 0; y < ph; y++ {
		row := img.Pix[img.PixOffset(pad.Min.X, pad.Min.Y+y):][:pw]
		above := integral[y*(pw+1)+1 : (y+1)*(pw+1)]
		cur := integral[(y+1)*(pw+1)+1 : (y+2)*(pw+1)]
		var rowSum uint64
		for x, v := range row {
			rowSum += uint64(v)
			cur[x] = above[x] + rowSum
		}
	}
	sum := func(x0, y0, x1, y1 int) uint64 { // half-open box in pad coords
		return integral[y1*(pw+1)+x1] - integral[y0*(pw+1)+x1] -
			integral[y1*(pw+1)+x0] + integral[y0*(pw+1)+x0]
	}
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	for y := r.Min.Y; y < r.Max.Y; y++ {
		y0 := clamp(y-radius-pad.Min.Y, 0, ph)
		y1 := clamp(y+radius+1-pad.Min.Y, 0, ph)
		out := img.Pix[img.PixOffset(r.Min.X, y):][:r.Dx()]
		for i := range out {
			x := r.Min.X + i
			x0 := clamp(x-radius-pad.Min.X, 0, pw)
			x1 := clamp(x+radius+1-pad.Min.X, 0, pw)
			n := uint64((x1 - x0) * (y1 - y0))
			if n == 0 {
				continue
			}
			out[i] = uint8(sum(x0, y0, x1, y1) / n)
		}
	}
}

// Process runs the blur stage on a frame in place: localize plates and
// blur each, in Localize's raster order, so the output is a function
// of the input alone even where two regions' blur windows overlap. It
// returns the regions that were blurred.
func Process(img *Gray, p Params) []Region {
	var c components
	return c.process(img, p.withDefaults())
}

// process is Process over reusable scratch; p must already carry its
// defaults.
func (c *components) process(img *Gray, p Params) []Region {
	regions := c.localize(img, p)
	for _, reg := range regions {
		BoxBlur(img, reg.Rect, p.BlurRadius)
	}
	return regions
}

// Plate describes a synthetic license plate to draw into a frame.
type Plate struct {
	// Rect is the plate's bounding box in frame coordinates.
	Rect image.Rectangle
}

// Synthesize renders a dashcam-like luminance frame: a mid-gray road
// scene with mild texture, dark car bodies, and bright plate rectangles
// with dark glyph stripes. The deterministic texture is keyed by seed.
func Synthesize(w, h int, plates []Plate, seed uint64) (*Gray, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("blur: invalid frame size %dx%d", w, h)
	}
	img := image.NewGray(image.Rect(0, 0, w, h))
	state := seed | 1
	next := func() uint64 { // xorshift64
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			base := uint8(90 + next()%40) // road/sky texture, well below threshold
			img.SetGray(x, y, color.Gray{Y: base})
		}
	}
	for _, p := range plates {
		r := p.Rect.Intersect(img.Rect)
		// Dark car body around the plate.
		body := r.Inset(-r.Dy())
		for y := body.Min.Y; y < body.Max.Y; y++ {
			for x := body.Min.X; x < body.Max.X; x++ {
				if (image.Point{X: x, Y: y}).In(img.Rect) {
					img.SetGray(x, y, color.Gray{Y: 40})
				}
			}
		}
		// Bright plate with dark glyph stripes.
		for y := r.Min.Y; y < r.Max.Y; y++ {
			for x := r.Min.X; x < r.Max.X; x++ {
				v := uint8(235)
				relX := x - r.Min.X
				if relX%8 >= 6 && y > r.Min.Y+2 && y < r.Max.Y-2 {
					v = 210 // glyph stroke, still above threshold to keep the component solid
				}
				img.SetGray(x, y, color.Gray{Y: v})
			}
		}
	}
	return img, nil
}

// MaxLuminance returns the maximum pixel value within the rectangle,
// used by tests to confirm that blurring destroyed plate contrast.
func MaxLuminance(img *Gray, r image.Rectangle) uint8 {
	rr := r.Intersect(img.Rect)
	var max uint8
	for y := rr.Min.Y; y < rr.Max.Y; y++ {
		for x := rr.Min.X; x < rr.Max.X; x++ {
			if v := img.GrayAt(x, y).Y; v > max {
				max = v
			}
		}
	}
	return max
}

// Contrast returns max-min luminance within the rectangle: a readable
// plate has strong glyph/background contrast, a blurred one does not.
func Contrast(img *Gray, r image.Rectangle) uint8 {
	rr := r.Intersect(img.Rect)
	if rr.Empty() {
		return 0
	}
	min, max := uint8(255), uint8(0)
	for y := rr.Min.Y; y < rr.Max.Y; y++ {
		for x := rr.Min.X; x < rr.Max.X; x++ {
			v := img.GrayAt(x, y).Y
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
	}
	return max - min
}

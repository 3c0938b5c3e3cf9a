package wavelet

import (
	"errors"
	"fmt"

	"zynqfusion/internal/bufpool"
	"zynqfusion/internal/frame"
)

// noPool is the allocating fallback used by the classic entry points
// (Forward2D, Inverse2D): every plane is a fresh plain frame, exactly the
// pre-pool behavior.
var noPool = bufpool.Passthrough()

// Bands holds the detail subbands of one decomposition level. Following
// the paper's naming, the first letter is the horizontal frequency and the
// second the vertical one: HL is high-horizontal/low-vertical detail.
type Bands struct {
	HL, LH, HH *frame.Frame
}

// release returns the band planes to their pool (a no-op for plain ones).
func (b *Bands) release() {
	for _, f := range []*frame.Frame{b.HL, b.LH, b.HH} {
		if f != nil {
			f.Release()
		}
	}
	b.HL, b.LH, b.HH = nil, nil, nil
}

// Decomp is a multi-level separable 2-D wavelet decomposition of a frame.
// Levels[0] is the finest scale. LL is the coarsest lowpass residual.
type Decomp struct {
	RowBanks []*Bank // analysis/synthesis bank per level, horizontal
	ColBanks []*Bank // analysis/synthesis bank per level, vertical
	Levels   []Bands
	LL       *frame.Frame
	sizes    []wh // unpadded input size at each level, for inverse cropping
}

// release returns every plane of the decomposition to its pool.
func (d *Decomp) release() {
	for i := range d.Levels {
		d.Levels[i].release()
	}
	if d.LL != nil {
		d.LL.Release()
		d.LL = nil
	}
}

type wh struct{ w, h int }

// ErrBadLevels reports an unusable decomposition depth.
var ErrBadLevels = errors.New("wavelet: levels must be >= 1 and leave subbands of at least 2x2")

// MaxLevels returns the deepest decomposition usable for a w x h frame
// (every level's padded input must be at least 4 samples in each
// dimension).
func MaxLevels(w, h int) int {
	levels := 0
	for {
		pw, ph := w+w%2, h+h%2
		if pw < 4 || ph < 4 {
			return levels
		}
		levels++
		w, h = pw/2, ph/2
	}
}

// levelGeom reports the padded input and subband geometry of level lv+1
// given the unpadded input geometry of that level.
func levelGeom(w, h int) (pw, ph, mw, mh int) {
	pw, ph = w+w%2, h+h%2
	return pw, ph, pw / 2, ph / 2
}

// shapeDecomp (re)shapes d for a w x h input at the given depth, drawing
// planes from pool: a decomposition already shaped for that geometry is
// reused untouched (the steady-state fast path), anything else is released
// and rebuilt. The plane shapes — and the per-level sizes the inverse
// crops back to — depend only on (w, h, levels), so a reused decomposition
// is structurally identical to a fresh one.
func shapeDecomp(d *Decomp, rowBanks, colBanks []*Bank, w, h, levels int, pool *bufpool.Pool) error {
	d.RowBanks, d.ColBanks = rowBanks[:levels], colBanks[:levels]
	if len(d.Levels) == levels && len(d.sizes) == levels && d.LL != nil {
		if d.sizes[0].w == w && d.sizes[0].h == h {
			return nil // already shaped for this geometry
		}
	}
	d.release()
	if cap(d.Levels) >= levels {
		d.Levels = d.Levels[:levels]
	} else {
		d.Levels = make([]Bands, levels)
	}
	if cap(d.sizes) >= levels {
		d.sizes = d.sizes[:levels]
	} else {
		d.sizes = make([]wh, levels)
	}
	cw, ch := w, h
	for lv := 0; lv < levels; lv++ {
		d.sizes[lv] = wh{cw, ch}
		_, _, mw, mh := levelGeom(cw, ch)
		var err error
		if d.Levels[lv].HL, err = pool.Get(mw, mh); err == nil {
			if d.Levels[lv].LH, err = pool.Get(mw, mh); err == nil {
				d.Levels[lv].HH, err = pool.Get(mw, mh)
			}
		}
		if err != nil {
			d.release()
			return err
		}
		cw, ch = mw, mh
	}
	ll, err := pool.Get(cw, ch)
	if err != nil {
		d.release()
		return err
	}
	d.LL = ll
	return nil
}

// Forward2D decomposes img over the given number of levels. rowBanks and
// colBanks supply the per-level filter banks (index 0 = level 1); both must
// have at least `levels` entries. Odd dimensions are handled by edge
// replication to the next even size, and the original size is recorded so
// Inverse2D reconstructs the exact input dimensions. Every plane of the
// result is freshly allocated; the pooled transform path goes through
// DTCWT.ForwardInto.
func Forward2D(x *Xfm, rowBanks, colBanks []*Bank, img *frame.Frame, levels int) (*Decomp, error) {
	if levels < 1 || levels > MaxLevels(img.W, img.H) {
		return nil, fmt.Errorf("%w: levels=%d for %dx%d (max %d)", ErrBadLevels, levels, img.W, img.H, MaxLevels(img.W, img.H))
	}
	if len(rowBanks) < levels || len(colBanks) < levels {
		return nil, fmt.Errorf("wavelet.Forward2D: need %d banks per dimension, have %d/%d", levels, len(rowBanks), len(colBanks))
	}
	d := &Decomp{}
	if err := shapeDecomp(d, rowBanks, colBanks, img.W, img.H, levels, noPool); err != nil {
		return nil, err
	}
	if err := forward2DInto(x, d, img, levels, noPool); err != nil {
		return nil, err
	}
	return d, nil
}

// forward2DInto runs the analysis cascade into a pre-shaped decomposition:
// for an engine with row charges, every level's charges are replayed into
// a route table first.
func forward2DInto(x *Xfm, d *Decomp, img *frame.Frame, levels int, pool *bufpool.Pool) error {
	var routes []levelRoute
	if x.tile != nil {
		routes = x.routeTable(levels)
		x.replayForwardTree(d, routes)
	}
	return forwardCascade(x, d, img, false, 0, levels, pool, routes)
}

// forwardCascade runs analysis levels from..levels-1 of d, starting from
// cur, the input of level from (released once consumed when owned), each
// on its replayed route (routes[lv]) when routes is non-nil and through
// the sequential per-row loops otherwise. Intermediate lowpass planes —
// each level's input to the next — are scratch leased from pool for the
// duration of the cascade, like the board's transform frame stores; the
// final one lands in d.LL.
func forwardCascade(x *Xfm, d *Decomp, cur *frame.Frame, owned bool, from, levels int, pool *bufpool.Pool, routes []levelRoute) error {
	for lv := from; lv < levels; lv++ {
		_, _, mw, mh := levelGeom(cur.W, cur.H)
		ll := d.LL
		if lv < levels-1 {
			var err error
			if ll, err = pool.Get(mw, mh); err != nil {
				if owned {
					cur.Release()
				}
				return err
			}
		}
		var r *levelRoute
		if routes != nil {
			r = &routes[lv]
		}
		err := forwardLevelInto(x, d.RowBanks[lv], d.ColBanks[lv], cur, ll, d.Levels[lv], pool, r)
		if owned {
			cur.Release()
		}
		if err != nil {
			if lv < levels-1 {
				ll.Release()
			}
			return err
		}
		cur, owned = ll, lv < levels-1
	}
	return nil
}

// forwardLevelInto performs one separable analysis level, writing the LL
// subband into ll and the three detail subbands into b (all pre-shaped):
// through the tiled passes on route r, whose charges the caller replayed,
// when r is non-nil, and otherwise through the kernel one 1-D row and
// column at a time inside the level's step walk (forwardSteps). Either
// way the padded plane is released after the row pass. Every sample of
// every output plane is written, so reused (uncleared) pooled planes
// give bit-identical results to fresh zeroed ones.
func forwardLevelInto(x *Xfm, rowBank, colBank *Bank, img, ll *frame.Frame, b Bands, pool *bufpool.Pool, r *levelRoute) error {
	p, padOwned, err := padEvenCompute(img, pool)
	if err != nil {
		return err
	}
	releasePad := func() {
		if padOwned != nil {
			padOwned.Release()
		}
	}
	rowOut, err := pool.Get(p.W, p.H)
	if err != nil {
		releasePad()
		return err
	}
	defer rowOut.Release()
	if r != nil {
		x.forwardRows(rowBank, p, rowOut, r.rows.chains)
		releasePad()
		x.forwardCols(colBank, nil, rowOut, ll, b, nil, Bands{}, &r.cols, nil)
		return nil
	}
	// Each row splits into lo (left half) and hi (right half); each column
	// of both halves then splits into the level's four subbands.
	w, h := p.W, p.H
	mw, mh := w/2, h/2
	x.forwardSteps(img.W, img.H, func(y int) {
		out := rowOut.Row(y)
		x.Analyze1D(rowBank, p.Row(y), out[:mw], out[mw:])
		if y == h-1 {
			releasePad()
		}
	}, func(cx int) {
		col := x.col.Grow(x.pool, h)
		for y := range col {
			col[y] = rowOut.Pix[y*w+cx]
		}
		lo, hi := x.Analyze1D(colBank, col, x.lo.Grow(x.pool, mh), x.hi.Grow(x.pool, mh))
		dLo, dHi, c := ll, b.LH, cx
		if cx >= mw {
			dLo, dHi, c = b.HL, b.HH, cx-mw
		}
		for y := range lo {
			dLo.Pix[y*mw+c] = lo[y]
			dHi.Pix[y*mw+c] = hi[y]
		}
	})
	return nil
}

// Inverse2D reconstructs the frame from a decomposition. The result is a
// fresh plain frame; the pooled path goes through DTCWT.Inverse.
func Inverse2D(x *Xfm, d *Decomp) (*frame.Frame, error) {
	return inverse2DPooled(x, d, noPool)
}

// inverse2DPooled reconstructs the frame, leasing every working plane —
// including the returned reconstruction, which the caller owns — from
// pool.
func inverse2DPooled(x *Xfm, d *Decomp, pool *bufpool.Pool) (*frame.Frame, error) {
	if len(d.Levels) == 0 || d.LL == nil {
		return nil, errors.New("wavelet.Inverse2D: empty decomposition")
	}
	cur := d.LL
	var curOwned *frame.Frame // pooled intermediate reconstruction
	for lv := len(d.Levels) - 1; lv >= 0; lv-- {
		b := d.Levels[lv]
		if !cur.SameSize(b.HL) || !cur.SameSize(b.LH) || !cur.SameSize(b.HH) {
			if curOwned != nil {
				curOwned.Release()
			}
			return nil, fmt.Errorf("wavelet.Inverse2D: level %d subband size mismatch", lv+1)
		}
		next, err := inverseLevelPooled(x, d.RowBanks[lv], d.ColBanks[lv], cur, b, d.sizes[lv], pool)
		if curOwned != nil {
			curOwned.Release()
		}
		if err != nil {
			return nil, err
		}
		curOwned = next
		cur = next
	}
	return cur, nil
}

// inverseLevelPooled undoes one analysis level and crops to the recorded
// size: routed and charged first and then through the tiled passes when
// the engine charges rows without data, and otherwise through the kernel
// one 1-D column and row at a time inside the level's step walk
// (inverseSteps), with identical pixels and charges. The horizontal
// synthesis runs in place over the vertical pass's plane — the board's
// wave engine reads and writes the same frame store — so the level needs
// one working plane, not two; the modeled memcpy charges are unchanged.
func inverseLevelPooled(x *Xfm, rowBank, colBank *Bank, ll *frame.Frame, b Bands, orig wh, pool *bufpool.Pool) (*frame.Frame, error) {
	mw, mh := ll.W, ll.H
	w, h := 2*mw, 2*mh

	// Vertical synthesis into the two half-width planes.
	rowOut, err := pool.Get(w, h)
	if err != nil {
		return nil, err
	}
	if x.tile != nil {
		r := &x.invRoute
		x.replayInverseLevel(rowBank, colBank, w, h, r)
		x.inverseCols(colBank, ll, b, rowOut, &r.cols)
		x.inverseRows(rowBank, rowOut, r.rows.chains)
	} else {
		x.inverseSteps(w, h, func(cx int) {
			lo, hi, c := ll, b.LH, cx
			if cx >= mw {
				lo, hi, c = b.HL, b.HH, cx-mw
			}
			loCol, hiCol := x.col.Grow(x.pool, mh), x.hiCol.Grow(x.pool, mh)
			for y := range loCol {
				loCol[y] = lo.Pix[y*mw+c]
				hiCol[y] = hi.Pix[y*mw+c]
			}
			for y, v := range x.Synthesize1D(colBank, loCol, hiCol, x.y2.Grow(x.pool, h)) {
				rowOut.Pix[y*w+cx] = v
			}
		}, func(y int) {
			// In place: Synthesize1D consumes the subband halves into its
			// padded scratch before any output is written.
			row := rowOut.Row(y)
			copy(row, x.Synthesize1D(rowBank, row[:mw], row[mw:], x.y2.Grow(x.pool, w)))
		})
	}

	if orig.w == w && orig.h == h {
		return rowOut, nil
	}
	cropped, err := pool.Get(orig.w, orig.h)
	if err != nil {
		rowOut.Release()
		return nil, err
	}
	for r := 0; r < orig.h; r++ {
		copy(cropped.Row(r), rowOut.Pix[r*w:r*w+orig.w])
	}
	rowOut.Release()
	return cropped, nil
}

// padEvenCompute returns img extended to even dimensions by edge
// replication — a pass-through when already even, otherwise a plane leased
// from pool that the caller releases via the returned owned handle. It
// charges nothing: callers charge the pad (owned's area) where their
// charge order puts it.
func padEvenCompute(img *frame.Frame, pool *bufpool.Pool) (padded, owned *frame.Frame, err error) {
	if img.W%2 == 0 && img.H%2 == 0 {
		return img, nil, nil
	}
	w, h := img.W+img.W%2, img.H+img.H%2
	p, err := pool.Get(w, h)
	if err != nil {
		return nil, nil, err
	}
	for y := 0; y < h; y++ {
		sy := y
		if sy >= img.H {
			sy = img.H - 1
		}
		dst := p.Row(y)
		copy(dst, img.Row(sy))
		if w > img.W {
			dst[w-1] = dst[img.W-1]
		}
	}
	return p, p, nil
}

// Mosaic renders the classic subband layout picture (Fig. 1 of the paper):
// detail subbands framed around the recursively divided LL quadrant. Each
// subband is amplitude-normalized independently for visibility.
func (d *Decomp) Mosaic() *frame.Frame {
	if len(d.Levels) == 0 {
		return frame.New(0, 0)
	}
	w := d.Levels[0].HL.W * 2
	h := d.Levels[0].HL.H * 2
	out := frame.New(w, h)
	for _, b := range d.Levels {
		placeNormalized(out, b.HL, b.HL.W, 0)
		placeNormalized(out, b.LH, 0, b.LH.H)
		placeNormalized(out, b.HH, b.HH.W, b.HH.H)
	}
	placeNormalized(out, d.LL, 0, 0)
	return out
}

func placeNormalized(dst, src *frame.Frame, x0, y0 int) {
	s := src.Clone()
	s.Normalize()
	for y := 0; y < s.H && y0+y < dst.H; y++ {
		for x := 0; x < s.W && x0+x < dst.W; x++ {
			dst.Set(x0+x, y0+y, s.At(x, y))
		}
	}
}

// BandEnergy returns the mean squared coefficient value of a frame, used
// by the subband inspection tool.
func BandEnergy(f *frame.Frame) float64 {
	var s float64
	for _, v := range f.Pix {
		s += float64(v) * float64(v)
	}
	if len(f.Pix) == 0 {
		return 0
	}
	return s / float64(len(f.Pix))
}

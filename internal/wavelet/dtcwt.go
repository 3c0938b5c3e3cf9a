package wavelet

import (
	"errors"
	"fmt"
	"math"

	"zynqfusion/internal/bufpool"
	"zynqfusion/internal/frame"
	"zynqfusion/internal/kernels"
)

// The dual tree runs four separable decompositions, one per (row tree,
// column tree) combination. Tree B uses one-sample-delayed filters at level
// 1 and time-reversed filters at levels >= 2, giving the approximate
// quarter-sample offset that makes the combined transform nearly analytic.
const numTrees = 4

// Tree combination indices: the first letter names the row (horizontal)
// tree and the second the column (vertical) tree.
const (
	TreeAA = iota
	TreeAB
	TreeBA
	TreeBB
)

// Orientation labels the six complex subbands of a DT-CWT level, in
// degrees. The exact label-to-band map is a convention; selectivity (a
// grating at +45 degrees excites the +45 band far more than the -45 band)
// is what the tests verify.
type Orientation int

// The six DT-CWT orientations.
const (
	Orient15  Orientation = 15
	Orient45  Orientation = 45
	Orient75  Orientation = 75
	OrientM15 Orientation = -15
	OrientM45 Orientation = -45
	OrientM75 Orientation = -75
)

// Orientations lists the band order used in DTLevel.Bands.
var Orientations = [6]Orientation{Orient15, Orient45, Orient75, OrientM75, OrientM45, OrientM15}

// ComplexBand is one oriented complex subband. A band built by the pooled
// transform path is backed by two leased planes; release returns them.
type ComplexBand struct {
	W, H   int
	Re, Im []float32

	re, im *frame.Frame // backing leases; nil for plainly allocated bands
}

// NewComplexBand allocates a zeroed w x h complex band.
func NewComplexBand(w, h int) *ComplexBand {
	return &ComplexBand{W: w, H: h, Re: make([]float32, w*h), Im: make([]float32, w*h)}
}

// newComplexBandPooled leases the band's two planes from pool.
func newComplexBandPooled(w, h int, pool *bufpool.Pool) (*ComplexBand, error) {
	re, err := pool.Get(w, h)
	if err != nil {
		return nil, err
	}
	im, err := pool.Get(w, h)
	if err != nil {
		re.Release()
		return nil, err
	}
	return &ComplexBand{W: w, H: h, Re: re.Pix, Im: im.Pix, re: re, im: im}, nil
}

// release returns a pooled band's planes (no-op for plain bands).
func (b *ComplexBand) release() {
	if b == nil || b.re == nil {
		return
	}
	b.re.Release()
	b.im.Release()
	b.re, b.im = nil, nil
	b.Re, b.Im = nil, nil
}

// Mag returns |z| at index i.
func (b *ComplexBand) Mag(i int) float64 {
	return math.Hypot(float64(b.Re[i]), float64(b.Im[i]))
}

// Energy returns the mean squared magnitude of the band.
func (b *ComplexBand) Energy() float64 {
	var s float64
	for i := range b.Re {
		s += float64(b.Re[i])*float64(b.Re[i]) + float64(b.Im[i])*float64(b.Im[i])
	}
	if len(b.Re) == 0 {
		return 0
	}
	return s / float64(len(b.Re))
}

// Clone returns a deep copy of the band.
func (b *ComplexBand) Clone() *ComplexBand {
	n := &ComplexBand{W: b.W, H: b.H, Re: make([]float32, len(b.Re)), Im: make([]float32, len(b.Im))}
	copy(n.Re, b.Re)
	copy(n.Im, b.Im)
	return n
}

// DTLevel holds the six oriented complex subbands of one scale.
type DTLevel struct {
	Bands [6]*ComplexBand
}

// DTPyramid is a full DT-CWT decomposition: oriented complex detail bands
// per level plus the four real lowpass residuals (one per tree
// combination). Pyramids built by the pooled transform path own leased
// planes; Release returns them all.
type DTPyramid struct {
	W, H   int // original frame size
	Levels []DTLevel
	LLs    [numTrees]*frame.Frame
	trees  [numTrees]*Decomp // retained for inversion bookkeeping
}

// NumLevels reports the decomposition depth.
func (p *DTPyramid) NumLevels() int { return len(p.Levels) }

// Release returns every plane of the pyramid to its pool (a no-op for
// plainly allocated pyramids). The pyramid keeps its structure and must be
// reshaped before reuse; p.LLs alias the per-tree residuals, which are
// released exactly once.
func (p *DTPyramid) Release() {
	for lv := range p.Levels {
		for bi := range p.Levels[lv].Bands {
			p.Levels[lv].Bands[bi].release()
			p.Levels[lv].Bands[bi] = nil
		}
	}
	for c := range p.trees {
		if p.trees[c] != nil {
			p.trees[c].release()
		}
		p.LLs[c] = nil // aliases trees[c].LL, already released
	}
	p.W, p.H = 0, 0
	p.Levels = p.Levels[:0]
}

// shaped reports whether the pyramid's quad planes (trees and residuals)
// already match a w x h input at the given depth and, when complex is set,
// whether its complex band planes are present too.
func (p *DTPyramid) shaped(w, h, levels int, complex bool) bool {
	if p.W != w || p.H != h || len(p.Levels) != levels {
		return false
	}
	for c := 0; c < numTrees; c++ {
		if p.trees[c] == nil || p.trees[c].LL == nil || len(p.trees[c].Levels) != levels {
			return false
		}
	}
	return !complex || p.Levels[0].Bands[0] != nil
}

// CloneStructure deep-copies the pyramid (bands, residuals and the
// per-tree bookkeeping needed for inversion) into plain storage. Fusion
// rules write into a clone so the source pyramids stay usable; the pooled
// hot path avoids the copy entirely with FuseInto over a shaped workspace.
func (p *DTPyramid) CloneStructure() *DTPyramid {
	n := &DTPyramid{W: p.W, H: p.H, Levels: make([]DTLevel, len(p.Levels))}
	for lv := range p.Levels {
		for bi, b := range p.Levels[lv].Bands {
			n.Levels[lv].Bands[bi] = b.Clone()
		}
	}
	for c := range p.LLs {
		n.LLs[c] = p.LLs[c].Clone()
		n.trees[c] = p.trees[c].clone()
	}
	return n
}

// clone deep-copies a tree decomposition (banks are immutable and shared).
func (d *Decomp) clone() *Decomp {
	n := &Decomp{
		RowBanks: d.RowBanks,
		ColBanks: d.ColBanks,
		Levels:   make([]Bands, len(d.Levels)),
		LL:       d.LL.Clone(),
		sizes:    append([]wh(nil), d.sizes...),
	}
	for i, b := range d.Levels {
		n.Levels[i] = Bands{HL: b.HL.Clone(), LH: b.LH.Clone(), HH: b.HH.Clone()}
	}
	return n
}

// TreeBanks selects the filter banks of the dual tree.
type TreeBanks struct {
	Level1A *Bank // tree A, level 1
	Level1B *Bank // tree B, level 1 (conventionally Level1A delayed by one)
	DeepA   *Bank // tree A, levels >= 2
	DeepB   *Bank // tree B, levels >= 2 (conventionally DeepA reversed)
}

// DefaultTreeBanks returns the bank set used throughout the paper
// reproduction: CDF 9/7 at level 1 (with the one-sample tree-B delay) and
// the Daubechies-4 pair at deeper levels (time-reversed for tree B).
func DefaultTreeBanks() TreeBanks {
	return TreeBanks{
		Level1A: CDF97,
		Level1B: cdf97Delayed,
		DeepA:   Daub4,
		DeepB:   Daub4Reversed,
	}
}

var cdf97Delayed = CDF97.Delayed("cdf-9/7-delayed")

// banksFor expands the tree banks into per-level slices for one tree.
func (tb TreeBanks) banksFor(tree byte, levels int) []*Bank {
	out := make([]*Bank, levels)
	for i := range out {
		switch {
		case i == 0 && tree == 'a':
			out[i] = tb.Level1A
		case i == 0:
			out[i] = tb.Level1B
		case tree == 'a':
			out[i] = tb.DeepA
		default:
			out[i] = tb.DeepB
		}
	}
	return out
}

// DTCWT runs forward and inverse dual-tree transforms through a kernel.
// It is not safe for concurrent use.
type DTCWT struct {
	X     *Xfm
	Banks TreeBanks

	pool *bufpool.Pool // nil → the allocating fallback

	// Cached per-tree bank expansions, rebuilt only when the depth
	// changes, so the steady-state transform allocates nothing.
	bankLevels int
	banksA     []*Bank
	banksB     []*Bank
}

// NewDTCWT returns a transform bound to the kernel inside x, with plainly
// allocated (non-pooled) planes.
func NewDTCWT(x *Xfm, banks TreeBanks) *DTCWT {
	return &DTCWT{X: x, Banks: banks}
}

// NewDTCWTPooled returns a transform whose working planes — pyramids,
// per-level scratch, reconstructions — are leased from pool.
func NewDTCWTPooled(x *Xfm, banks TreeBanks, pool *bufpool.Pool) *DTCWT {
	return &DTCWT{X: x, Banks: banks, pool: pool}
}

// Pool returns the transform's plane pool (nil for the allocating path).
func (t *DTCWT) Pool() *bufpool.Pool { return t.pool }

func (t *DTCWT) poolOr() *bufpool.Pool {
	if t.pool != nil {
		return t.pool
	}
	return noPool
}

// treeBanks returns the cached per-level bank slices for a tree.
func (t *DTCWT) treeBanks(tree byte, levels int) []*Bank {
	if t.bankLevels != levels {
		t.banksA = t.Banks.banksFor('a', levels)
		t.banksB = t.Banks.banksFor('b', levels)
		t.bankLevels = levels
	}
	if tree == 'a' {
		return t.banksA
	}
	return t.banksB
}

// ShapePyramid (re)shapes p for a w x h input at the given depth, leasing
// planes from the transform's pool: an already-matching pyramid is
// returned untouched, so a per-frame workspace costs nothing in steady
// state. The shaped pyramid carries the full inversion bookkeeping (banks
// and crop sizes), making it a valid fusion destination for FuseInto even
// before any forward transform has run through it.
func (t *DTCWT) ShapePyramid(p *DTPyramid, w, h, levels int) error {
	return t.shape(p, w, h, levels, true)
}

// ShapeQuadPyramid (re)shapes p with quad (tree) planes and lowpass
// residuals only, eliding the six complex band planes per level that the
// quad data path (ForwardQuadInto, the fusion package's FuseQuads,
// InverseFused) never materializes. A pyramid whose quad planes already
// match is kept as is, complex planes included.
func (t *DTCWT) ShapeQuadPyramid(p *DTPyramid, w, h, levels int) error {
	return t.shape(p, w, h, levels, false)
}

func (t *DTCWT) shape(p *DTPyramid, w, h, levels int, complex bool) error {
	if levels < 1 || levels > MaxLevels(w, h) {
		return fmt.Errorf("%w: levels=%d for %dx%d", ErrBadLevels, levels, w, h)
	}
	if p.shaped(w, h, levels, complex) {
		// Plane shapes are reusable as-is; refresh the bank bookkeeping in
		// case the pyramid last ran under a transform with different banks.
		for c := 0; c < numTrees; c++ {
			rowTree, colTree := comboTrees(c)
			p.trees[c].RowBanks = t.treeBanks(rowTree, levels)
			p.trees[c].ColBanks = t.treeBanks(colTree, levels)
		}
		return nil
	}
	p.Release()
	pool := t.poolOr()
	p.W, p.H = w, h
	if cap(p.Levels) >= levels {
		p.Levels = p.Levels[:levels]
	} else {
		p.Levels = make([]DTLevel, levels)
	}
	for c := 0; c < numTrees; c++ {
		rowTree, colTree := comboTrees(c)
		if p.trees[c] == nil {
			p.trees[c] = &Decomp{}
		}
		if err := shapeDecomp(p.trees[c], t.treeBanks(rowTree, levels), t.treeBanks(colTree, levels), w, h, levels, pool); err != nil {
			p.Release()
			return err
		}
		p.LLs[c] = p.trees[c].LL
	}
	if !complex {
		return nil
	}
	cw, ch := w, h
	for lv := 0; lv < levels; lv++ {
		_, _, mw, mh := levelGeom(cw, ch)
		for bi := range p.Levels[lv].Bands {
			b, err := newComplexBandPooled(mw, mh, pool)
			if err != nil {
				p.Release()
				return err
			}
			p.Levels[lv].Bands[bi] = b
		}
		cw, ch = mw, mh
	}
	return nil
}

// Forward computes the DT-CWT of img over the given number of levels into
// a fresh pyramid. The pooled hot path is ForwardInto, which reuses a
// workspace pyramid frame over frame; Forward itself always builds anew,
// so callers that hold pyramids across calls (round-trip tests, the
// forward-only benchmarks) stay safe.
func (t *DTCWT) Forward(img *frame.Frame, levels int) (*DTPyramid, error) {
	return t.ForwardInto(&DTPyramid{}, img, levels)
}

// ForwardInto computes the DT-CWT of img into p, reusing p's planes when
// it is already shaped for this geometry (and reshaping it from the pool
// otherwise): the four tree decompositions, then the q2c combination into
// the six oriented complex bands per level. Every coefficient of every
// plane is overwritten, so a reused workspace is bit-for-bit a fresh
// transform. It returns p.
func (t *DTCWT) ForwardInto(p *DTPyramid, img *frame.Frame, levels int) (*DTPyramid, error) {
	if err := t.forward(p, img, levels, true); err != nil {
		return nil, err
	}
	return p, nil
}

// ForwardQuadInto computes the DT-CWT of img into p in quad (tree) layout
// only: the tree decompositions ForwardInto computes, without building the
// complex band planes — the fusion package's FuseQuads reads the trees
// directly. The q2c combination's modeled charges are still applied, so
// the modeled cost (cycles, energy, NEON ledger) is ForwardInto's.
func (t *DTCWT) ForwardQuadInto(p *DTPyramid, img *frame.Frame, levels int) error {
	return t.forward(p, img, levels, false)
}

func (t *DTCWT) forward(p *DTPyramid, img *frame.Frame, levels int, complex bool) error {
	if err := t.shape(p, img.W, img.H, levels, complex); err != nil {
		return err
	}
	if err := t.forwardTrees(p, img, levels); err != nil {
		return err
	}
	x := t.X
	for lv := 0; lv < levels; lv++ {
		if complex {
			combineLevel(x, p.trees, lv, &p.Levels[lv])
		}
		n := len(bandOf(p.trees[TreeAA], lv, 0).Pix)
		for bi := 0; bi < 3; bi++ {
			x.chargeCPU(4 * n)
		}
	}
	return nil
}

// forwardTrees runs the four tree decompositions of img into p's trees.
// Engines without tile compute run each tree's sequential cascade. Tile
// engines compute level 1 in one tiled traversal — each row tree's row
// pass once, shared by its two tree combinations, and one row-band
// vertical pass feeding both column trees — then cascade the deeper
// levels per tree.
// Level 1's charges are replayed in each tree's turn, so the charge
// sequence is the sequential cascades'.
func (t *DTCWT) forwardTrees(p *DTPyramid, img *frame.Frame, levels int) error {
	x := t.X
	pool := t.poolOr()
	if x.tile == nil {
		for c := 0; c < numTrees; c++ {
			if err := forward2DInto(x, p.trees[c], img, levels, pool); err != nil {
				return err
			}
		}
		return nil
	}
	ll, err := t.forwardLevel1(p, img, levels)
	if err != nil {
		return err
	}
	for c := 0; c < numTrees; c++ {
		x.chargeForwardLevel(img.W, img.H)
		cur := ll[c]
		ll[c] = nil
		if err := forwardCascade(x, p.trees[c], cur, levels > 1, 1, levels, pool); err != nil {
			for _, f := range ll {
				if f != nil && levels > 1 {
					f.Release()
				}
			}
			return err
		}
	}
	return nil
}

// forwardLevel1 is the tile engines' charge-free level-1 traversal. It
// returns each tree's level-1 lowpass: the residual itself at depth 1,
// otherwise a leased plane the tree's deep cascade consumes.
func (t *DTCWT) forwardLevel1(p *DTPyramid, img *frame.Frame, levels int) ([numTrees]*frame.Frame, error) {
	x := t.X
	pool := t.poolOr()
	var ll [numTrees]*frame.Frame
	pad, padOwned, err := padEvenCompute(img, pool)
	if err != nil {
		return ll, err
	}
	fail := func(err error) ([numTrees]*frame.Frame, error) {
		if padOwned != nil {
			padOwned.Release()
		}
		for c := range ll {
			if levels > 1 && ll[c] != nil {
				ll[c].Release()
			}
		}
		return [numTrees]*frame.Frame{}, err
	}
	for c := 0; c < numTrees; c++ {
		if levels == 1 {
			ll[c] = p.trees[c].LL
		} else if ll[c], err = pool.Get(pad.W/2, pad.H/2); err != nil {
			return fail(err)
		}
	}
	rowOut, err := pool.Get(pad.W, pad.H)
	if err != nil {
		return fail(err)
	}
	colA, colB := t.treeBanks('a', levels)[0], t.treeBanks('b', levels)[0]
	for _, rt := range [2]byte{'a', 'b'} {
		x.forwardRows(t.treeBanks(rt, levels)[0], pad, rowOut)
		cA, cB := comboIndex(rt, 'a'), comboIndex(rt, 'b')
		x.forwardCols(colA, colB, rowOut, ll[cA], p.trees[cA].Levels[0], ll[cB], p.trees[cB].Levels[0])
	}
	rowOut.Release()
	if padOwned != nil {
		padOwned.Release()
	}
	return ll, nil
}

// Inverse reconstructs the frame from the pyramid. The complex bands are
// redistributed to the four trees (the exact inverse of the forward
// combination), each tree is inverted, and the four reconstructions are
// averaged. On the pooled path the returned frame is leased from the
// transform's pool and owned by the caller (Release it to recycle).
func (t *DTCWT) Inverse(p *DTPyramid) (*frame.Frame, error) {
	return t.inverse(p, true)
}

// InverseFused reconstructs the frame from a pyramid whose coefficients
// already sit in quad (tree) layout — FuseQuads' output — skipping the c2q
// distribution compute while applying its modeled charges. Bit-identical
// to Inverse over the equivalent complex-band pyramid.
func (t *DTCWT) InverseFused(p *DTPyramid) (*frame.Frame, error) {
	return t.inverse(p, false)
}

func (t *DTCWT) inverse(p *DTPyramid, distribute bool) (*frame.Frame, error) {
	if p.NumLevels() == 0 {
		return nil, errors.New("wavelet.DTCWT: empty pyramid")
	}
	x := t.X
	pool := t.poolOr()
	for lv := range p.Levels {
		if distribute {
			distributeLevel(x, p.trees, p.Levels[lv], lv)
		}
		n := len(bandOf(p.trees[TreeAA], lv, 0).Pix)
		for bi := 0; bi < 3; bi++ {
			x.chargeCPU(4 * n)
		}
	}
	var acc *frame.Frame
	for c := 0; c < numTrees; c++ {
		p.trees[c].LL = p.LLs[c]
		rec, err := inverse2DPooled(x, p.trees[c], pool)
		if err != nil {
			if acc != nil {
				acc.Release()
			}
			return nil, err
		}
		if acc == nil {
			acc = rec
			continue
		}
		if !acc.SameSize(rec) {
			acc.Release()
			rec.Release()
			return nil, errors.New("wavelet.DTCWT: tree reconstruction size mismatch")
		}
		// The last accumulation also applies the four-tree average.
		x.pixAcc = accTask{dst: acc.Pix, src: rec.Pix, scale: c == numTrees-1}
		x.W.Run(len(acc.Pix), kernels.Grain(len(acc.Pix), 8, x.W.N()), &x.pixAcc)
		rec.Release()
	}
	x.chargeCPU(numTrees * len(acc.Pix))
	return acc, nil
}

func comboTrees(c int) (rowTree, colTree byte) {
	switch c {
	case TreeAA:
		return 'a', 'a'
	case TreeAB:
		return 'a', 'b'
	case TreeBA:
		return 'b', 'a'
	default:
		return 'b', 'b'
	}
}

// comboIndex maps (row tree, column tree) letters to the tree combination
// index — the inverse of comboTrees.
func comboIndex(rowTree, colTree byte) int {
	switch {
	case rowTree == 'a' && colTree == 'a':
		return TreeAA
	case rowTree == 'a':
		return TreeAB
	case colTree == 'a':
		return TreeBA
	default:
		return TreeBB
	}
}

// InvSqrt2 scales the unitary four-real-to-two-complex combination (the
// q2c map and its c2q inverse). The fused combine+rule+distribute kernels
// (fusion, kernels.MaxMagQuad) mirror the per-element expressions here
// exactly to stay bit-identical.
const InvSqrt2 = kernels.InvSqrt2

const invSqrt2 = InvSqrt2

// combineLevel applies the q2c map to each detail band of one level,
// writing into the pre-shaped bands of out:
//
//	z1 = ((p - q) + i(r + s)) / sqrt2
//	z2 = ((p + q) + i(s - r)) / sqrt2
//
// with p = AA, q = BB, r = AB, s = BA. The map is unitary, so
// |z1|^2 + |z2|^2 = p^2 + q^2 + r^2 + s^2 and it is exactly invertible.
// Its modeled charges are applied by the caller.
func combineLevel(x *Xfm, trees [numTrees]*Decomp, lv int, out *DTLevel) {
	for bi := 0; bi < 3; bi++ {
		p := bandOf(trees[TreeAA], lv, bi)
		q := bandOf(trees[TreeBB], lv, bi)
		r := bandOf(trees[TreeAB], lv, bi)
		s := bandOf(trees[TreeBA], lv, bi)
		z1 := out.Bands[bi]
		z2 := out.Bands[5-bi]
		n := len(p.Pix)
		x.q2c = q2cTask{p: p.Pix, q: q.Pix, r: r.Pix, s: s.Pix,
			z1re: z1.Re, z1im: z1.Im, z2re: z2.Re, z2im: z2.Im}
		x.W.Run(n, kernels.Grain(n, 32, x.W.N()), &x.q2c)
	}
}

// distributeLevel applies c2q, the exact inverse of combineLevel, writing
// the (possibly fused) complex coefficients back into the four trees. Its
// modeled charges are applied by the caller.
func distributeLevel(x *Xfm, trees [numTrees]*Decomp, l DTLevel, lv int) {
	for bi := 0; bi < 3; bi++ {
		z1 := l.Bands[bi]
		z2 := l.Bands[5-bi]
		p := bandOf(trees[TreeAA], lv, bi)
		q := bandOf(trees[TreeBB], lv, bi)
		r := bandOf(trees[TreeAB], lv, bi)
		s := bandOf(trees[TreeBA], lv, bi)
		n := len(p.Pix)
		x.c2q = c2qTask{z1re: z1.Re, z1im: z1.Im, z2re: z2.Re, z2im: z2.Im,
			p: p.Pix, q: q.Pix, r: r.Pix, s: s.Pix}
		x.W.Run(n, kernels.Grain(n, 32, x.W.N()), &x.c2q)
	}
}

// TreeBand exposes detail band bi (0=HL, 1=LH, 2=HH) of tree combination c
// at level lv — the quad (tree) coefficient planes FuseQuads reads and
// writes directly. In the q2c convention, band position p is TreeAA, q is
// TreeBB, r is TreeAB and s is TreeBA.
func (p *DTPyramid) TreeBand(c, lv, bi int) *frame.Frame {
	return bandOf(p.trees[c], lv, bi)
}

// bandOf selects detail band bi (0=HL, 1=LH, 2=HH) of a tree level.
func bandOf(d *Decomp, lv, bi int) *frame.Frame {
	switch bi {
	case 0:
		return d.Levels[lv].HL
	case 1:
		return d.Levels[lv].LH
	default:
		return d.Levels[lv].HH
	}
}

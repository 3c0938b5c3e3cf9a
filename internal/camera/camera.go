package camera

import (
	"fmt"

	"zynqfusion/internal/bt656"
	"zynqfusion/internal/bufpool"
	"zynqfusion/internal/frame"
)

// Webcam models the USB visible-band camera (Logitech C160 class): it
// captures RGB frames that the PS converts to greyscale before fusion, as
// the paper does ("the original video captured by the web-camera was
// gray-scaled before fusing").
type Webcam struct {
	scene *Scene
	// Frames counts captures.
	Frames int64

	pool   *bufpool.Pool // delivered frames lease from here when set
	sensor *frame.Frame  // reusable render buffer (the sensor's own store)
	rgb    []byte        // reusable interleaved-RGB staging buffer
}

// NewWebcam attaches a webcam to a scene.
func NewWebcam(s *Scene) *Webcam { return &Webcam{scene: s} }

// SetPool makes the webcam deliver captured frames as leases from p — the
// camera writes straight into the capture frame store, VDMA-style — and
// the consumer Releases each frame when done. Without a pool every capture
// is a fresh plain frame.
func (w *Webcam) SetPool(p *bufpool.Pool) { w.pool = p }

// Capture returns the current greyscale frame. The RGB sensor mosaic and
// USB decode are folded into the scene's visible rendering plus the
// standard luma conversion.
func (w *Webcam) Capture() (*frame.Frame, error) {
	w.Frames++
	if w.sensor == nil {
		w.sensor = frame.New(w.scene.W, w.scene.H)
	}
	w.scene.VisibleInto(w.sensor)
	vis := w.sensor
	// Round-trip through interleaved RGB, as the USB path delivers it.
	if need := vis.W * vis.H * 3; cap(w.rgb) < need {
		w.rgb = make([]byte, need)
	}
	rgb := w.rgb[:vis.W*vis.H*3]
	for i, v := range vis.Pix {
		b := clampByte(v)
		rgb[3*i], rgb[3*i+1], rgb[3*i+2] = b, b, b
	}
	g, err := w.outFrame(vis.W, vis.H)
	if err != nil {
		return nil, err
	}
	if err := frame.GrayFromRGBInto(g, rgb); err != nil {
		g.Release()
		panic("camera: internal RGB conversion: " + err.Error())
	}
	return g, nil
}

func (w *Webcam) outFrame(fw, fh int) (*frame.Frame, error) {
	if w.pool == nil {
		return frame.New(fw, fh), nil
	}
	f, err := w.pool.Get(fw, fh)
	if err != nil {
		return nil, fmt.Errorf("camera: webcam frame store: %w", err)
	}
	return f, nil
}

func clampByte(v float32) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}

// Thermal models the Thermoteknix MicroCAM-class infrared camera. Its
// output travels the full PL capture path of Fig. 7: BT.656 serialization,
// the decoder state machine, the video scaler and the frame-handshake
// output FIFO.
type Thermal struct {
	scene  *Scene
	native struct{ w, h int }
	enc    bt656.Encoder
	dec    *bt656.Decoder
	up     bt656.Scaler // sensor render to the native field, a line at a time
	scaler bt656.Scaler // decoded field to the target geometry
	fifo   bt656.OutputFIFO

	pool   *bufpool.Pool // delivered frames lease from here when set
	sensor *frame.Frame  // reusable scene render at the sensor geometry

	// TargetW and TargetH are the fusion geometry (the paper fuses 88x72
	// because the longwave sensor resolution is the limit).
	TargetW, TargetH int
}

// NewThermal attaches a thermal camera to a scene. The camera renders at
// its native geometry, serializes over BT.656, decodes and scales on the
// modeled PL, and finally delivers frames at the target fusion geometry.
func NewThermal(s *Scene, targetW, targetH int) (*Thermal, error) {
	if targetW <= 0 || targetH <= 0 {
		return nil, fmt.Errorf("camera: bad target %dx%d", targetW, targetH)
	}
	t := &Thermal{scene: s, TargetW: targetW, TargetH: targetH}
	// Native field geometry of the BT.656 head (720 samples per line,
	// 243 active lines per field).
	t.native.w, t.native.h = 720, 243
	t.dec = bt656.NewDecoder(t.native.w)
	t.up = bt656.Scaler{OutW: t.native.w, OutH: t.native.h}
	t.scaler = bt656.Scaler{OutW: targetW, OutH: targetH}
	return t, nil
}

// Stats exposes the decoder statistics (Fig. 7 status signals).
func (t *Thermal) Stats() bt656.DecoderStats { return t.dec.Stats }

// FIFO exposes the output FIFO counters.
func (t *Thermal) FIFO() *bt656.OutputFIFO { return &t.fifo }

// SetPool makes the thermal camera deliver frames as leases from p (the
// consumer Releases each). Without a pool every capture is a fresh plain
// frame. The BT.656 intermediates — sensor render, the encoder's line,
// decoder lines and field stores, the scalers' line buffers — are
// persistent either way, mirroring the fixed capture buffers of the
// Fig. 7 chain, so a pooled capture allocates nothing once warm.
func (t *Thermal) SetPool(p *bufpool.Pool) { t.pool = p }

// sendLine puts one line of the native field on the BT.656 link.
func (t *Thermal) sendLine(y []float32) error { return t.enc.WriteLine(t.dec, y) }

// Capture renders the scene at the sensor, pushes it through the BT.656
// path and returns the scaled frame. It fails only if the handshake FIFO
// still holds an unconsumed frame.
func (t *Thermal) Capture() (*frame.Frame, error) {
	// Render at the native field geometry: the scene is observed at the
	// sensor's own resolution before serialization.
	if t.sensor == nil {
		t.sensor = frame.New(t.scene.W, t.scene.H)
	}
	t.scene.ThermalInto(t.sensor)
	// The head upscales the render to its native field and sends it line
	// by line; the decoder takes each line off the link as it arrives.
	if err := t.enc.BeginField(t.dec, t.native.w); err != nil {
		return nil, err
	}
	if err := t.up.ScaleLines(t.sensor, t.sendLine); err != nil {
		return nil, err
	}
	t.dec.Flush()
	raw, ok := t.dec.NextFrame()
	if !ok {
		return nil, fmt.Errorf("camera: BT.656 decode produced no field")
	}
	var scaled *frame.Frame
	if t.pool != nil {
		var err error
		if scaled, err = t.pool.Get(t.TargetW, t.TargetH); err != nil {
			return nil, fmt.Errorf("camera: thermal frame store: %w", err)
		}
	} else {
		scaled = frame.New(t.TargetW, t.TargetH)
	}
	if err := t.scaler.ScaleInto(scaled, raw); err != nil {
		scaled.Release()
		return nil, err
	}
	t.dec.Recycle(raw)
	if !t.fifo.Push(scaled) {
		scaled.Release()
		return nil, fmt.Errorf("camera: output FIFO full (previous frame not taken)")
	}
	out, _ := t.fifo.Pop()
	return out, nil
}

package data

import (
	"fmt"
	"io"
	"os"

	"repro/internal/tensor"
)

// CIFAR-100 binary layout ("train.bin" / "test.bin"): each record is one
// coarse label byte, one fine label byte, then 3×32×32 pixel bytes in
// channel-major order. This loader lets the reproduction run on the real
// dataset when the files are present; the synthetic datasets remain the
// offline default.
const (
	cifarChannels = 3
	cifarSide     = 32
	cifarPixels   = cifarChannels * cifarSide * cifarSide
	cifarRecord   = 2 + cifarPixels
)

// LoadCIFAR100 parses up to maxRecords CIFAR-100 records from r (0 = all).
// Pixels are scaled to [-1, 1]; labels are the fine labels (0..99).
func LoadCIFAR100(r io.Reader, maxRecords int) (Split, error) {
	var (
		images []float64
		labels []int
		buf    = make([]byte, cifarRecord)
	)
	for maxRecords <= 0 || len(labels) < maxRecords {
		_, err := io.ReadFull(r, buf)
		if err == io.EOF {
			break
		}
		if err == io.ErrUnexpectedEOF {
			return Split{}, fmt.Errorf("data: truncated CIFAR-100 record %d", len(labels))
		}
		if err != nil {
			return Split{}, fmt.Errorf("data: reading CIFAR-100: %w", err)
		}
		fine := int(buf[1])
		if fine > 99 {
			return Split{}, fmt.Errorf("data: fine label %d out of range in record %d", fine, len(labels))
		}
		labels = append(labels, fine)
		for _, b := range buf[2:] {
			images = append(images, float64(b)/127.5-1)
		}
	}
	if len(labels) == 0 {
		return Split{}, fmt.Errorf("data: no CIFAR-100 records found")
	}
	x := tensor.FromSlice(images, len(labels), cifarChannels, cifarSide, cifarSide)
	return Split{X: x, Labels: labels}, nil
}

// LoadCIFAR100File opens and parses a CIFAR-100 binary file.
func LoadCIFAR100File(path string, maxRecords int) (Split, error) {
	f, err := os.Open(path)
	if err != nil {
		return Split{}, fmt.Errorf("data: %w", err)
	}
	defer f.Close()
	return LoadCIFAR100(f, maxRecords)
}

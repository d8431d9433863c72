package checkpoint

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/models"
	"repro/internal/pruner"
)

// FuzzLoadPersonalization feeds arbitrary bytes to the record parser, the
// one reader of every model file: the snapshot store feeds it whatever
// survives on disk, and a saved model is a record too, so arbitrary bytes
// must produce an error or a record — never a panic, a hang, or an
// allocation sized by a length word no record of the architecture could
// carry. This is the fail-closed half of the warm-restart contract: Restore
// skips what this parser rejects.
func FuzzLoadPersonalization(f *testing.F) {
	clf := models.Build(models.ResNet, rand.New(rand.NewSource(3)), 4, 1)
	for _, p := range clf.PrunableParams() {
		m := p.EnsureMask()
		for j := range m.Data {
			m.Data[j] = float64(j % 2)
		}
	}
	rec := PersonalizationRecord{
		Key: "0,2", Classes: []int{0, 2}, Accuracy: 0.5,
		Report: pruner.Summary{AchievedSparsity: 0.69, FLOPsRatio: 0.4},
	}
	delta, err := EncodeModelDelta(clf, clf)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePersonalization(&buf, rec, delta); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	// The delta's length word, declaring more than the stream holds and more
	// than the architecture admits.
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(huge[len(huge)-8-len(delta)-4:], uint32(deltaBound(clf)+1))
	f.Add(huge)
	f.Add(huge[:len(huge)-8-len(delta)])
	f.Add([]byte{})
	f.Add([]byte("CRSP"))
	f.Add(valid[:len(valid)/3])
	f.Add(valid[:len(valid)-1])
	corrupted := append([]byte(nil), valid...)
	if len(corrupted) > 30 {
		corrupted[9] ^= 0xFF  // key length
		corrupted[29] ^= 0x0F // somewhere in the metadata
	}
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		dst := models.Build(models.ResNet, rand.New(rand.NewSource(4)), 4, 1)
		_, _ = LoadPersonalization(bytes.NewReader(data), dst)
	})
}

// Package pipemodel defines the contract between stageable models and the
// pipeline execution engine. Any model that exposes an embedding path, a
// list of transformer blocks (the partitionable middle), and a head/loss
// path can be trained by internal/engine under any pipeline schedule —
// GPipe, 1F1B, Chimera, or the PipeFisher-augmented forms — without the
// engine knowing the architecture. Both internal/bert (encoder, masked-LM +
// NSP objective) and internal/gpt (decoder, next-token objective) implement
// Model, mirroring the paper's claim that the scheduling machinery is
// architecture-agnostic across the BERT and OPT families it evaluates.
//
// Micro-batch loss scaling: pipelined training splits a mini-batch into
// micro-batches whose losses must aggregate exactly as a full-batch step
// would. The global averaging denominators (total loss-bearing tokens,
// total sequences) are known after data loading and before any backward, so
// the engine computes Totals once per step and passes them to every
// HeadLoss/HeadGradient call; implementations rescale their micro-batch
// means by local/global counts to reproduce the full-batch mean bit-for-bit.
package pipemodel

import (
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Totals carries the global loss denominators of one training step.
type Totals struct {
	// Tokens is the number of loss-bearing positions in the full mini-batch
	// (masked positions for BERT, predicted positions for GPT).
	Tokens int
	// Seqs is the number of sequences in the full mini-batch.
	Seqs int
}

// Loss is one (micro-)batch's loss contribution, already scaled to the
// global denominators so contributions sum to the full-batch loss.
type Loss struct {
	// Total is the scalar training objective.
	Total float64
	// Components breaks Total down by named objective ("mlm"/"nsp" for
	// BERT, "lm" for GPT). Invariant: Total equals the components' sum.
	Components map[string]float64
	// Tokens echoes the number of loss-bearing positions contributing.
	Tokens int
}

// Add accumulates another contribution into l.
func (l *Loss) Add(o Loss) {
	l.Total += o.Total
	l.Tokens += o.Tokens
	if len(o.Components) > 0 && l.Components == nil {
		l.Components = make(map[string]float64, len(o.Components))
	}
	for k, v := range o.Components {
		l.Components[k] += v
	}
}

// Model is a stageable network: embedding on stage 0, a partitionable block
// stack in the middle, and head+loss on the last stage.
//
// Implementations need not be safe for concurrent use, with one
// qualification: the engine gives every pipeline stage of a model instance
// to exactly one device goroutine, but different stages of one instance run
// on different goroutines at the same time — the embedding path (stage 0),
// each block, and the head path (last stage) must therefore share no
// mutable state with one another. Bidirectional schedules like Chimera,
// where two devices host the same stage, run each direction on its own
// instance (Replicate), and the engine points the second instance's
// parameter values at the first one's storage: Params must hand out the
// *tensor.Matrix headers the modules compute with, parameter values must be
// read-only inside the forward/backward/head methods, and an update written
// into a parameter's Data in place is seen by both instances.
//
// Buffer ownership: matrices returned by EmbedForward and HeadGradient may
// be model-retained buffers that the next call to the same method
// overwrites (the zero-alloc hot-path contract). The engine therefore
// copies anything that must outlive the producing op — cross-stage
// activations and error signals, and stage 0's own input, go through pooled
// clones. The blocks are different: the engine runs each in-flight
// micro-batch on its own twin of a stage's blocks
// (nn.TransformerBlock.Twin), so block activations survive to the backward
// and only the embedding — whose caches the model holds for one micro-batch
// — is recomputed, immediately before EmbedBackward. HeadGradient receives
// the same y its HeadLoss saw.
type Model interface {
	// PipelineBlocks returns the transformer blocks, in forward order, that
	// the engine partitions into contiguous pipeline stages.
	PipelineBlocks() []*nn.TransformerBlock
	// SeqLen returns the fixed sequence length batches must have.
	SeqLen() int
	// EmbedForward produces the stage-0 block input for a micro-batch.
	EmbedForward(mb *data.Batch) *tensor.Matrix
	// EmbedBackward backpropagates the stage-0 block-input gradient into
	// the embedding tables. It must be called directly after an
	// EmbedForward of the same micro-batch (the recomputation discipline).
	EmbedBackward(grad *tensor.Matrix)
	// BatchTokenCount returns the number of loss-bearing positions in a
	// (micro-)batch, the per-batch numerator of the loss scaling.
	BatchTokenCount(mb *data.Batch) int
	// HeadLoss evaluates the head and loss on the last stage's block output
	// y, scaled by the micro-batch's share of the global denominators. It
	// must not produce gradients.
	HeadLoss(mb *data.Batch, y *tensor.Matrix, t Totals) (Loss, error)
	// HeadGradient returns the globally-scaled loss gradient with respect
	// to y, accumulating head-parameter gradients along the way.
	HeadGradient(mb *data.Batch, y *tensor.Matrix, t Totals) (*tensor.Matrix, error)
	// KFACLossScale returns the loss-averaging count M the K-FAC B-factor
	// rescales by (see kfac.UpdateCurvature), given the step's totals.
	KFACLossScale(t Totals) float64
	// Params returns every trainable parameter of the model in a
	// deterministic order, congruent across Replicate copies — the unit
	// of the engine's per-step parameter broadcast.
	Params() []*nn.Param
	// EmbedParams returns the parameters of the stage-0 embedding path
	// (everything EmbedForward/EmbedBackward touches), in a deterministic
	// order. The engine uses it to attribute embedding gradients to stage
	// 0's per-micro-batch reduction segments.
	EmbedParams() []*nn.Param
	// HeadParams returns the parameters of the last-stage head path
	// (everything HeadLoss/HeadGradient touches), in a deterministic
	// order, for the last stage's reduction segments.
	HeadParams() []*nn.Param
	// Replicate builds an independent copy of the model — same
	// configuration, parameter values copied, no shared mutable state —
	// for one data-parallel replica or one Chimera direction. Copies are
	// stepped by the engine only: it points their parameter values at the
	// primary model's storage and owns their gradient storage.
	Replicate() (Model, error)
}

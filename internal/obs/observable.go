package obs

// Observable is the capability interface for erasure codes (and other
// components) that can attach a metrics registry. It is the typed form
// of what the production stack used to reach through a liberation-only
// downcast: any code that implements it gets per-operation spans in the
// registry the stack runs with.
//
// The interface lives here rather than in core because its method is
// typed on *Registry and obs already depends on core for the Ops
// accounting — core cannot import obs back.
type Observable interface {
	Instrument(reg *Registry)
}

// CodeSpans is the instrumentation every erasure code family embeds: one
// span family per coding operation, which the code's Instrument resolves
// once, by name, on the registry it attaches. An operation records a
// span of its family (see Span); a family left nil, on a detached code
// or for an operation the code lacks, records nothing.
type CodeSpans struct {
	EncodeSpan, DecodeSpan, UpdateSpan, CorrectSpan *SpanFamily
}

// Registry returns the registry the spans record into (nil when
// detached).
func (s *CodeSpans) Registry() *Registry {
	if s.EncodeSpan == nil {
		return nil
	}
	return s.EncodeSpan.calls.reg
}

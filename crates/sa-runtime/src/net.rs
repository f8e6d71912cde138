//! Message types of the simulated interconnect (crossbeam channels).

use sa_mem::TaggedPage;

/// Inter-PE messages. Every variant corresponds to a message the paper's
/// architecture exchanges: page fetches (§4), reduction partials collected
/// at host PEs (§9), the re-initialization protocol (§5), and the anchor
/// resolution traffic indirect (gather/scatter) statements need before
/// owner screening can run.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Remote read: `from` needs element `offset` of the page.
    PageRequest {
        /// Array identity.
        array: usize,
        /// Page index.
        page: usize,
        /// Requester's generation of the array.
        generation: u32,
        /// Element offset within the page that triggered the fetch
        /// (the owner defers the reply until this cell is defined).
        offset: usize,
        /// Requesting PE.
        from: usize,
    },
    /// The owner answers: the requested cell's value, and a copy of the
    /// page only when the requester keeps one (its cache).
    PageReply {
        /// Array identity.
        array: usize,
        /// Page index.
        page: usize,
        /// Generation of the shipped copy.
        generation: u32,
        /// The requested cell's value.
        value: f64,
        /// Page contents with the fill snapshot at ship time, when the run
        /// caches (`cache_pages > 0`); boxed, so a reply stays small.
        data: Option<Box<TaggedPage>>,
        /// True when the owner could not answer immediately and queued the
        /// request until the cell's producer wrote it — an I-structure
        /// deferral, i.e. a *realized* read-after-write wait. The requester
        /// records these so runs can be cross-checked against the static
        /// dependence graph (`sa-lint`'s `DepGraph::covers_wait`).
        deferred: bool,
    },
    /// Anchor resolution: `from` needs element `offset` of an *index
    /// array's* page to compute the owner of an indirect statement anchor
    /// (`A(P(i)) = …`). Same deferral rule as [`Msg::PageRequest`], but the
    /// reply feeds the requester's resolution store, not its counted page
    /// cache — ownership screening is not program work, so these messages
    /// are tallied separately from the §4 fetch traffic.
    IndirectFetch {
        /// Index array identity.
        array: usize,
        /// Page index.
        page: usize,
        /// Requester's generation of the array.
        generation: u32,
        /// Element offset whose definition the owner must wait for.
        offset: usize,
        /// Requesting PE.
        from: usize,
    },
    /// Reply to an [`Msg::IndirectFetch`].
    IndirectReply {
        /// Index array identity.
        array: usize,
        /// Page index.
        page: usize,
        /// Generation of the shipped copy.
        generation: u32,
        /// Page contents with the fill snapshot at ship time, kept in the
        /// requester's resolution store.
        data: Box<TaggedPage>,
        /// True when the resolution had to wait for the index cell's
        /// single assignment (same deferral semantics as
        /// [`Msg::PageReply::deferred`]).
        deferred: bool,
    },
    /// A reduction partial result travelling to the scalar's host PE.
    Partial {
        /// Scalar slot.
        scalar: usize,
        /// Which reduce-nest occurrence this belongs to.
        seq: u64,
        /// The partial value.
        value: f64,
        /// Contributing PE.
        from: usize,
    },
    /// Host broadcast of a finished reduction.
    ScalarValue {
        /// Scalar slot.
        scalar: usize,
        /// Reduce-nest occurrence.
        seq: u64,
        /// The combined value.
        value: f64,
    },
    /// A PE asks the array's host to re-initialize (§5 collection phase).
    ReinitRequest {
        /// Array identity.
        array: usize,
        /// Requesting PE.
        from: usize,
    },
    /// The host releases the array for reuse (§5 broadcast phase).
    ReinitRelease {
        /// Array identity.
        array: usize,
        /// The array's new generation.
        generation: u32,
    },
    /// A PE confirms it applied a [`Msg::ReinitRelease`] (frames cleared,
    /// generation bumped). Second barrier round: without it, an
    /// already-released PE could race into the next nest and fetch from a
    /// peer that has not yet processed its own release — the owner would
    /// misread that legitimate fetch as a deadlocked pre-barrier reader.
    /// Not part of the paper's §5 message model, so tallied as sync
    /// traffic outside the modeled count.
    ReinitAck {
        /// Array identity.
        array: usize,
        /// Acknowledging PE.
        from: usize,
    },
    /// The host, having collected every [`Msg::ReinitAck`], lets the PEs
    /// leave the barrier: only now is every worker past its release, so
    /// any undefined-cell fetch arriving at a still-syncing worker really
    /// is a dead end. Sync traffic, like [`Msg::ReinitAck`].
    ReinitGo {
        /// Array identity.
        array: usize,
    },
}

// A page travels boxed: no payload may move back inline and grow every
// message, requests and reduction partials included.
const _: () = assert!(std::mem::size_of::<Msg>() <= 40);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_cloneable_and_debuggable() {
        let m = Msg::PageRequest {
            array: 1,
            page: 2,
            generation: 0,
            offset: 3,
            from: 4,
        };
        let c = m.clone();
        assert!(format!("{c:?}").contains("PageRequest"));
        let r = Msg::PageReply {
            array: 1,
            page: 2,
            generation: 0,
            value: 1.0,
            data: Some(Box::new(TaggedPage::full(vec![1.0]))),
            deferred: false,
        };
        assert!(format!("{r:?}").contains("PageReply"));
        let bare = Msg::PageReply {
            array: 1,
            page: 2,
            generation: 0,
            value: 1.0,
            data: None,
            deferred: true,
        };
        assert!(format!("{:?}", bare.clone()).contains("value: 1.0"));
        let i = Msg::IndirectFetch {
            array: 1,
            page: 0,
            generation: 0,
            offset: 7,
            from: 2,
        };
        assert!(format!("{i:?}").contains("IndirectFetch"));
        let ir = Msg::IndirectReply {
            array: 1,
            page: 0,
            generation: 0,
            data: Box::new(TaggedPage::undefined(4)),
            deferred: true,
        };
        assert!(format!("{ir:?}").contains("IndirectReply"));
    }
}

//! The compiler's output on every zoo model is pinned.
//!
//! Each Fig. 6, Table 1 and case-study model is compiled under three
//! option sets, and the whole result is folded into one FNV-1a digest:
//! the optimized graph's tensors and nodes (name, op, inputs, outputs),
//! the plan's order and FC kernel variants, and the pass log. A refactor
//! of the pass framework, the passes or the scheduler must leave every
//! digest unchanged.

use mtia_compiler::{compile, Compiled, CompilerOptions};
use mtia_core::fnv::Fnv1a;
use mtia_model::models::zoo::{self, ZooModel};

fn text(hash: &mut Fnv1a, s: &str) {
    hash.word(s.len() as u64);
    hash.bytes(s.as_bytes());
}

fn digest(c: &Compiled) -> u64 {
    let mut hash = Fnv1a::default();
    let g = &c.graph;
    text(&mut hash, g.name());
    hash.word(g.batch());
    hash.word(g.tensors().len() as u64);
    for t in g.tensors() {
        text(&mut hash, &format!("{t:?}"));
    }
    hash.word(g.nodes().len() as u64);
    for node in g.nodes() {
        text(&mut hash, &node.name);
        text(&mut hash, &format!("{:?}", node.op));
        for ids in [&node.inputs, &node.outputs] {
            hash.word(ids.len() as u64);
            for t in ids {
                hash.word(t.index() as u64);
            }
        }
    }
    hash.word(c.plan.order.len() as u64);
    for &i in &c.plan.order {
        hash.word(i as u64);
    }
    hash.word(c.plan.fc_variants.len() as u64);
    for (&i, variant) in &c.plan.fc_variants {
        hash.word(i as u64);
        text(&mut hash, &format!("{variant:?}"));
    }
    hash.word(c.pass_log.len() as u64);
    for (name, rewrites) in &c.pass_log {
        text(&mut hash, name);
        hash.word(*rewrites as u64);
    }
    hash.finish()
}

/// `all()`, `none()`, and `all()` with the large FCs quantized.
fn option_sets() -> [CompilerOptions; 3] {
    let quantized = CompilerOptions {
        quantize_large_fcs: true,
        ..CompilerOptions::all()
    };
    [CompilerOptions::all(), CompilerOptions::none(), quantized]
}

fn every_zoo_model() -> Vec<ZooModel> {
    let mut models = zoo::fig6_models();
    models.extend(zoo::table1_models());
    models.push(zoo::case_study_initial());
    models
}

/// Per model: the digests under [`option_sets`], in order.
const PINNED: [(&str, [u64; 3]); 15] = [
    (
        "LC1",
        [0xb4bae74fad9867f5, 0x489b906f3cc2638e, 0x444cc6e7131cce62],
    ),
    (
        "LC2",
        [0x50bdb5000276173d, 0x6e693c48731d05e4, 0x83d8ae7190983988],
    ),
    (
        "LC3",
        [0x8dd7869f2865f3b9, 0x8011fa90f39db43a, 0xfb7188463321c182],
    ),
    (
        "LC4",
        [0x3eacec8ebb1988fc, 0xebdd723a150b4403, 0x0b5ea324426998af],
    ),
    (
        "LC5",
        [0x9a893b6416171c40, 0x2c6131ea9fe79f7b, 0xc9afc6bf57fe7a15],
    ),
    (
        "HC1",
        [0x0902cfddff007edf, 0x421be8579db74b86, 0x71d98b448ae2c30a],
    ),
    (
        "HC2",
        [0xd998e4023a1b99cb, 0xefd6274b9b4513e0, 0x90ac8c89a918e130],
    ),
    (
        "HC3",
        [0xced99568c40f031b, 0xa60a9ab618555b2a, 0x687edb561dd31b48],
    ),
    (
        "HC4",
        [0x9c628dd2f79eaa48, 0x2357ea2713297771, 0xcf98c52f5bfcea8b],
    ),
    (
        "retrieval",
        [0xf6acc80060c4f981, 0xa62be318d357b4a2, 0x91b032d8df72ad34],
    ),
    (
        "early-stage-ranking",
        [0xa9c86d0a97f0458e, 0x8df5f1c6d585f2a9, 0x5f84bc4a0f541bdb],
    ),
    (
        "late-stage-ranking",
        [0x9c22181b3a8c1436, 0x3fb0d7c1cd1dfcb3, 0x75d986ebcc86892d],
    ),
    (
        "hstu-retrieval",
        [0xf923f0b2b437d40d, 0x21363095d933d942, 0x3cd0ae37c3374740],
    ),
    (
        "hstu-ranking",
        [0xc7fe19d19b821fc7, 0x254e0d154af1f428, 0xdd35a33171e5c0ee],
    ),
    (
        "HC3-initial",
        [0x754aab6158bffae2, 0xd7f9ce62b70231e0, 0xf55fb36d684725b9],
    ),
];

#[test]
fn compiled_zoo_matches_the_parent() {
    let models = every_zoo_model();
    let mut got = Vec::new();
    for m in &models {
        let graph = m.graph();
        let digests = option_sets().map(|options| digest(&compile(&graph, options)));
        println!(
            "    (\"{}\", [{:#018x}, {:#018x}, {:#018x}]),",
            m.name, digests[0], digests[1], digests[2]
        );
        got.push((m.name.as_str(), digests));
    }
    assert_eq!(got, PINNED);
}

//! Static-dispatch equivalence: every predictor × estimator combination
//! must behave bit-identically whether it enters the simulator as a
//! concrete type (enum fast path) or as a boxed trait object (the `Dyn`
//! escape hatch kept for qa/exec callers). Identical `PipelineStats`,
//! identical quadrants, identical trace JSONL bytes — on a fuzz-generated
//! program so the comparison exercises mispredictions and recovery, not
//! just straight-line code.

use cestim_bpred::{
    AnyPredictor, Bimodal, BranchPredictor, Gshare, McFarling, Perceptron, SAg, Tage,
};
use cestim_core::{
    AlwaysHigh, AlwaysLow, AnyEstimator, Boosted, Cir, ConfidenceEstimator, DistanceEstimator, Jrs,
    JrsCombining, PatternHistory, SaturatingConfidence, TimingEstimator, Voting,
};
use cestim_obs::Tracer;
use cestim_pipeline::{EstimatorQuadrants, PipelineConfig, PipelineStats, Simulator};
use cestim_qa::{assemble, generate, GenConfig, XorShift64Star};

fn predictor(kind: &str) -> AnyPredictor {
    match kind {
        "bimodal" => Bimodal::new(12).into(),
        "gshare" => Gshare::new(12).into(),
        "mcfarling" => McFarling::new(12).into(),
        "sag" => SAg::new(10, 9).into(),
        "tage" => Tage::default_config().into(),
        "perceptron" => Perceptron::default_config().into(),
        other => panic!("unknown predictor {other}"),
    }
}

fn predictor_dyn(kind: &str) -> Box<dyn BranchPredictor> {
    match kind {
        "bimodal" => Box::new(Bimodal::new(12)),
        "gshare" => Box::new(Gshare::new(12)),
        "mcfarling" => Box::new(McFarling::new(12)),
        "sag" => Box::new(SAg::new(10, 9)),
        "tage" => Box::new(Tage::default_config()),
        "perceptron" => Box::new(Perceptron::default_config()),
        other => panic!("unknown predictor {other}"),
    }
}

fn estimator(kind: &str) -> AnyEstimator {
    match kind {
        "jrs" => Jrs::paper_enhanced().into(),
        "saturating" => SaturatingConfidence::selected().into(),
        "pattern" => PatternHistory::new(12).into(),
        "distance" => DistanceEstimator::new(3).into(),
        "cir" => Cir::new(10, 16, 14, true).into(),
        "jrs-combining" => JrsCombining::new(10, 12).into(),
        "boosted" => Boosted::new(AnyEstimator::from(DistanceEstimator::new(2)), 2).into(),
        "voting" => Voting::new(
            vec![
                AnyEstimator::from(SaturatingConfidence::selected()),
                AnyEstimator::from(DistanceEstimator::new(3)),
                AnyEstimator::from(TimingEstimator::new(4)),
            ],
            2,
        )
        .into(),
        "timing" => TimingEstimator::new(4).into(),
        "always-high" => AlwaysHigh.into(),
        "always-low" => AlwaysLow.into(),
        other => panic!("unknown estimator {other}"),
    }
}

fn estimator_dyn(kind: &str) -> Box<dyn ConfidenceEstimator> {
    match kind {
        "jrs" => Box::new(Jrs::paper_enhanced()),
        "saturating" => Box::new(SaturatingConfidence::selected()),
        "pattern" => Box::new(PatternHistory::new(12)),
        "distance" => Box::new(DistanceEstimator::new(3)),
        "cir" => Box::new(Cir::new(10, 16, 14, true)),
        "jrs-combining" => Box::new(JrsCombining::new(10, 12)),
        "boosted" => Box::new(Boosted::new(DistanceEstimator::new(2), 2)),
        "voting" => Box::new(Voting::new(
            vec![
                Box::new(SaturatingConfidence::selected()) as Box<dyn ConfidenceEstimator>,
                Box::new(DistanceEstimator::new(3)),
                Box::new(TimingEstimator::new(4)),
            ],
            2,
        )),
        "timing" => Box::new(TimingEstimator::new(4)),
        "always-high" => Box::new(AlwaysHigh),
        "always-low" => Box::new(AlwaysLow),
        other => panic!("unknown estimator {other}"),
    }
}

const PREDICTORS: [&str; 6] = [
    "bimodal",
    "gshare",
    "mcfarling",
    "sag",
    "tage",
    "perceptron",
];
const ESTIMATORS: [&str; 11] = [
    "jrs",
    "saturating",
    "pattern",
    "distance",
    "cir",
    "jrs-combining",
    "boosted",
    "voting",
    "timing",
    "always-high",
    "always-low",
];

struct RunResult {
    stats: PipelineStats,
    quadrants: Vec<EstimatorQuadrants>,
    trace: Vec<u8>,
}

fn run(
    program: &cestim_isa::Program,
    pred: impl Into<AnyPredictor>,
    est: impl Into<AnyEstimator>,
) -> RunResult {
    let mut sim = Simulator::new(program, PipelineConfig::paper(), pred);
    sim.add_estimator(est);
    let mut tracer = Tracer::unbounded();
    let stats = sim.run(&mut tracer);
    let quadrants = sim.estimator_quadrants().to_vec();
    let mut trace = Vec::new();
    tracer.export_jsonl(&mut trace).expect("trace export");
    RunResult {
        stats,
        quadrants,
        trace,
    }
}

#[test]
fn enum_and_dyn_paths_are_bit_identical() {
    // A moderately branchy fuzz program: enough mispredictions to exercise
    // recovery, squash accounting, and estimator resolve notifications.
    let mut rng = XorShift64Star::new(0xD15B_A7C4_0000_0001);
    let qa = generate(&mut rng, &GenConfig::default());
    let program = assemble(&qa);

    for pk in PREDICTORS {
        for ek in ESTIMATORS {
            let fast = run(&program, predictor(pk), estimator(ek));
            let shim = run(&program, predictor_dyn(pk), estimator_dyn(ek));
            // A Box<dyn ConfidenceEstimator> must land on the Dyn variant
            // (the point of the shim), yet change nothing observable.
            assert_eq!(fast.stats, shim.stats, "stats diverged for {pk} x {ek}");
            assert_eq!(
                fast.quadrants, shim.quadrants,
                "quadrants diverged for {pk} x {ek}"
            );
            assert_eq!(
                fast.trace, shim.trace,
                "trace JSONL bytes diverged for {pk} x {ek}"
            );
            assert!(
                !fast.trace.is_empty(),
                "empty trace for {pk} x {ek}: equivalence vacuous"
            );
        }
    }
}

#[test]
fn boxed_concrete_types_take_the_fast_path() {
    // Historical `Box::new(Gshare)` call sites should silently unbox into
    // the static variant rather than fall back to virtual dispatch.
    let p: AnyPredictor = Box::new(Gshare::new(12)).into();
    assert!(!p.is_dyn());
    let e: AnyEstimator = Box::new(Jrs::paper_enhanced()).into();
    assert!(!e.is_dyn());
    let d: AnyPredictor = predictor_dyn("gshare").into();
    assert!(d.is_dyn());
}
